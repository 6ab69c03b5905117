package toolxml

// Built-in wrapper documents for the two tools of the paper's evaluation,
// written the way GYAN's Code 1-3 listings show them. They are embedded as
// constants so examples, tests and the Galaxy registry share one source of
// truth.

// RaconMacrosXML is the paper's Code 1: racon's macros.xml with the new
// requirement of type "gpu".
const RaconMacrosXML = `<macros>
  <xml name="requirements">
    <requirement type="package" version="1.4.20">racon</requirement>
    <requirement type="compute">gpu</requirement>
  </xml>
  <xml name="container_requirements">
    <container type="docker">gulsumgudukbay/racon_dockerfile</container>
    <container type="singularity">docker://gulsumgudukbay/racon_dockerfile</container>
  </xml>
</macros>
`

// RaconToolXML is the paper's Code 3: the racon.xml wrapper whose command
// block switches executables on __galaxy_gpu_enabled__.
const RaconToolXML = `<tool id="racon" name="Racon" version="1.4.20">
  <description>Consensus module for raw de novo DNA assembly of long uncorrected reads</description>
  <macros>
    <import>macros.xml</import>
  </macros>
  <requirements>
    <expand macro="requirements"/>
    <expand macro="container_requirements"/>
  </requirements>
  <command>
#if $__galaxy_gpu_enabled__ == "true":
    racon_gpu -t $threads --cudapoa-batches $batches $banding_flag $reads $overlaps $target
#else
    racon -t $threads $reads $overlaps $target
#end if
  </command>
  <inputs>
    <param name="threads" type="integer" value="4" label="CPU threads"/>
    <param name="batches" type="integer" value="1" label="cudapoa batches"/>
    <param name="banding_flag" type="text" value="" label="banding approximation flag"/>
    <param name="reads" type="data" label="Reads (FASTA/FASTQ)"/>
    <param name="overlaps" type="data" label="Overlaps (PAF/SAM)"/>
    <param name="target" type="data" label="Target sequences to polish"/>
  </inputs>
  <outputs>
    <data name="consensus" format="fasta"/>
  </outputs>
</tool>
`

// RaconGPUTool returns the parsed, macro-expanded racon wrapper. The parse
// and expansion run once per process (see ParseCached); every call gets an
// independent clone.
func RaconGPUTool() (*Tool, error) {
	return ExpandedTool(RaconToolXML, map[string]string{"macros.xml": RaconMacrosXML})
}

// BonitoToolXML is the wrapper for the Bonito basecaller (pip package
// version 0.3.2 in the paper's evaluation).
const BonitoToolXML = `<tool id="bonito" name="Bonito basecaller" version="0.3.2">
  <description>A PyTorch basecaller for Oxford Nanopore reads</description>
  <requirements>
    <requirement type="package" version="0.3.2">ont-bonito</requirement>
    <requirement type="compute">gpu</requirement>
    <container type="docker">nanoporetech/bonito</container>
  </requirements>
  <command>
#if $__galaxy_gpu_enabled__ == "true":
    bonito basecaller $model $reads --device cuda
#else
    bonito basecaller $model $reads --device cpu
#end if
  </command>
  <inputs>
    <param name="model" type="select" label="Basecalling model">
      <option value="dna_r9.4.1">dna_r9.4.1</option>
    </param>
    <param name="decoder" type="select" label="CTC decoder">
      <option value="greedy">greedy</option>
      <option value="beam">beam search</option>
    </param>
    <param name="threads" type="integer" value="4" min="1" label="CPU threads"/>
    <param name="reads" type="data" format="fast5" label="Raw signal (fast5)"/>
  </inputs>
  <outputs>
    <data name="basecalls" format="fasta"/>
  </outputs>
</tool>
`

// BonitoTool returns the parsed bonito wrapper (cached; see ParseCached).
func BonitoTool() (*Tool, error) { return ParseCached(BonitoToolXML) }

// PaswasToolXML is the wrapper for the pyPaSWAS-style Smith-Waterman
// aligner — the GPU-capable tool the paper's introduction cites as its
// motivating example (33x speedup).
const PaswasToolXML = `<tool id="pypaswas" name="pyPaSWAS" version="3.0">
  <description>Python-based multi-core CPU and GPU sequence alignment</description>
  <requirements>
    <requirement type="package" version="3.0">pypaswas</requirement>
    <requirement type="compute">gpu</requirement>
  </requirements>
  <command>
#if $__galaxy_gpu_enabled__ == "true":
    pypaswas --device GPU -t $threads $queries $target
#else
    pypaswas --device CPU -t $threads $queries $target
#end if
  </command>
  <inputs>
    <param name="threads" type="integer" value="4" min="1" label="CPU threads"/>
    <param name="queries" type="data" format="fasta" label="Query sequences"/>
    <param name="target" type="data" format="fasta" label="Target sequences"/>
  </inputs>
  <outputs>
    <data name="hits" format="tabular"/>
  </outputs>
</tool>
`

// PaswasTool returns the parsed pypaswas wrapper (cached; see ParseCached).
func PaswasTool() (*Tool, error) { return ParseCached(PaswasToolXML) }

// CPUOnlyToolXML is a plain tool with no GPU requirement, used to verify
// that GYAN leaves CPU tools on CPU destinations.
const CPUOnlyToolXML = `<tool id="seqstats" name="Sequence statistics" version="1.0">
  <description>Summary statistics over a FASTA file</description>
  <requirements>
    <requirement type="package" version="1.0">seqstats</requirement>
  </requirements>
  <command>
seqstats $input
  </command>
  <inputs>
    <param name="input" type="data" format="fasta" label="Sequences"/>
  </inputs>
  <outputs>
    <data name="stats" format="tabular"/>
  </outputs>
</tool>
`
