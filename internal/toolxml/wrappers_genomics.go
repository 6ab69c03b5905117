package toolxml

// Wrapper documents for the three-stage short-variant pipeline (align →
// variant-call → BQSR) that GPU genomics suites accelerate end to end.
// They follow the same Code 3 pattern as the racon wrapper: the command
// block switches executables on __galaxy_gpu_enabled__ and the requirements
// carry the paper's new compute="gpu" tag.

// BwaMemToolXML is the wrapper for the BWA-MEM-style aligner with a
// titan/G3SA-class GPU offload.
const BwaMemToolXML = `<tool id="bwa-mem" name="BWA-MEM" version="2.2.1">
  <description>Map sequencing reads against a reference genome</description>
  <requirements>
    <requirement type="package" version="2.2.1">bwa-mem2</requirement>
    <requirement type="compute">gpu</requirement>
  </requirements>
  <command>
#if $__galaxy_gpu_enabled__ == "true":
    bwa-mem-gpu mem -t $threads $reference $reads
#else
    bwa-mem2 mem -t $threads $reference $reads
#end if
  </command>
  <inputs>
    <param name="threads" type="integer" value="4" min="1" label="CPU threads"/>
    <param name="reference" type="data" label="Reference genome (FASTA)"/>
    <param name="reads" type="data" label="Reads (FASTQ)"/>
  </inputs>
  <outputs>
    <data name="alignments" format="bam"/>
  </outputs>
</tool>
`

// BwaMemTool returns the parsed bwa-mem wrapper (cached; see ParseCached).
func BwaMemTool() (*Tool, error) { return ParseCached(BwaMemToolXML) }

// VariantCallerToolXML is the wrapper for the HaplotypeCaller-class variant
// caller with a Parabricks-style GPU path.
const VariantCallerToolXML = `<tool id="variant-caller" name="Variant caller" version="4.2.0">
  <description>Call short variants from aligned reads</description>
  <requirements>
    <requirement type="package" version="4.2.0">gatk4</requirement>
    <requirement type="compute">gpu</requirement>
  </requirements>
  <command>
#if $__galaxy_gpu_enabled__ == "true":
    vcall-gpu --min-depth $min_depth --threads $threads $alignments
#else
    gatk HaplotypeCaller --native-pair-hmm-threads $threads $alignments
#end if
  </command>
  <inputs>
    <param name="threads" type="integer" value="4" min="1" label="CPU threads"/>
    <param name="min_depth" type="integer" value="3" min="1" label="Minimum pileup depth"/>
    <param name="alignments" type="data" label="Aligned reads (BAM)"/>
  </inputs>
  <outputs>
    <data name="variants" format="vcf"/>
  </outputs>
</tool>
`

// VariantCallerTool returns the parsed variant-caller wrapper (cached).
func VariantCallerTool() (*Tool, error) { return ParseCached(VariantCallerToolXML) }

// BQSRToolXML is the wrapper for base-quality score recalibration.
const BQSRToolXML = `<tool id="bqsr" name="Base quality recalibrator" version="4.2.0">
  <description>Recalibrate base quality scores from empirical error rates</description>
  <requirements>
    <requirement type="package" version="4.2.0">gatk4</requirement>
    <requirement type="compute">gpu</requirement>
  </requirements>
  <command>
#if $__galaxy_gpu_enabled__ == "true":
    bqsr-gpu --threads $threads $calls
#else
    gatk BaseRecalibrator $calls
#end if
  </command>
  <inputs>
    <param name="threads" type="integer" value="4" min="1" label="CPU threads"/>
    <param name="calls" type="data" label="Called alignments (BAM + VCF)"/>
  </inputs>
  <outputs>
    <data name="table" format="tabular"/>
  </outputs>
</tool>
`

// BQSRTool returns the parsed BQSR wrapper (cached; see ParseCached).
func BQSRTool() (*Tool, error) { return ParseCached(BQSRToolXML) }
