package workload

import (
	"testing"
	"testing/quick"

	"gyan/internal/bioseq"
)

func TestGenerateLongReadsDeterministic(t *testing.T) {
	a, err := AlzheimersNFL(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AlzheimersNFL(7)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Reference.Bases) != string(b.Reference.Bases) {
		t.Fatal("same seed produced different references")
	}
	if len(a.Reads) != len(b.Reads) {
		t.Fatalf("same seed produced %d vs %d reads", len(a.Reads), len(b.Reads))
	}
	for i := range a.Reads {
		if string(a.Reads[i].Bases) != string(b.Reads[i].Bases) {
			t.Fatalf("read %d differs between same-seed runs", i)
		}
	}
	c, err := AlzheimersNFL(8)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Reference.Bases) == string(c.Reference.Bases) {
		t.Fatal("different seeds produced identical references")
	}
}

func TestLongReadsShape(t *testing.T) {
	rs, err := AlzheimersNFL(1)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Reference.Len() != 20000 {
		t.Errorf("reference length = %d", rs.Reference.Len())
	}
	if rs.NominalBytes != 17<<30 {
		t.Errorf("NominalBytes = %d, want 17 GiB", rs.NominalBytes)
	}
	if len(rs.Reads) != len(rs.Starts) {
		t.Fatalf("reads/starts mismatch: %d vs %d", len(rs.Reads), len(rs.Starts))
	}
	// ~30x coverage of 20 kb in 1 kb reads = ~600 reads.
	if len(rs.Reads) < 500 || len(rs.Reads) > 700 {
		t.Errorf("read count = %d, want ~600", len(rs.Reads))
	}
	for i, r := range rs.Reads {
		if err := r.Validate(); err != nil {
			t.Fatalf("read %d invalid: %v", i, err)
		}
		if rs.Starts[i] < 0 || rs.Starts[i] >= rs.Reference.Len() {
			t.Fatalf("read %d start %d out of range", i, rs.Starts[i])
		}
	}
}

func TestReadsResembleReference(t *testing.T) {
	rs, err := AlzheimersNFL(3)
	if err != nil {
		t.Fatal(err)
	}
	// A read should align to its true origin with identity roughly
	// 1 - total error rate (~0.89), far above random (~0.25-0.5).
	for i := 0; i < 10; i++ {
		read := rs.Reads[i]
		start := rs.Starts[i]
		end := start + read.Len()
		if end > rs.Reference.Len() {
			end = rs.Reference.Len()
		}
		id := bioseq.Identity(read.Bases, rs.Reference.Bases[start:end])
		if id < 0.75 {
			t.Errorf("read %d identity to origin = %.2f, want > 0.75", i, id)
		}
	}
}

func TestBackboneIsImperfectButClose(t *testing.T) {
	rs, err := AlzheimersNFL(4)
	if err != nil {
		t.Fatal(err)
	}
	id := bioseq.Identity(rs.Backbone.Bases, rs.Reference.Bases)
	if id > 0.999 {
		t.Errorf("backbone identity %.4f: nothing for Racon to fix", id)
	}
	if id < 0.90 {
		t.Errorf("backbone identity %.4f: draft unrealistically bad", id)
	}
}

func TestLongReadConfigValidation(t *testing.T) {
	base := LongReadConfig{
		Name: "x", RefLen: 1000, ReadLen: 100, Coverage: 10,
		SubRate: 0.01, InsRate: 0.01, DelRate: 0.01, BackboneErrorRate: 0.05,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*LongReadConfig){
		func(c *LongReadConfig) { c.RefLen = 0 },
		func(c *LongReadConfig) { c.ReadLen = 0 },
		func(c *LongReadConfig) { c.ReadLen = c.RefLen + 1 },
		func(c *LongReadConfig) { c.Coverage = 0 },
		func(c *LongReadConfig) { c.SubRate = -0.1 },
		func(c *LongReadConfig) { c.SubRate = 0.95 },
		func(c *LongReadConfig) { c.BackboneErrorRate = 0.6 },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSquigglesDeterministic(t *testing.T) {
	a, err := AcinetobacterPittii(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AcinetobacterPittii(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Squiggles) != len(b.Squiggles) {
		t.Fatal("same seed different squiggle counts")
	}
	for i := range a.Squiggles {
		sa, sb := a.Squiggles[i], b.Squiggles[i]
		if len(sa.Samples) != len(sb.Samples) {
			t.Fatalf("squiggle %d sample count differs", i)
		}
		for j := range sa.Samples {
			if sa.Samples[j] != sb.Samples[j] {
				t.Fatalf("squiggle %d sample %d differs", i, j)
			}
		}
	}
}

func TestSquiggleShape(t *testing.T) {
	set, err := KlebsiellaPneumoniae(5)
	if err != nil {
		t.Fatal(err)
	}
	if set.NominalBytes != 5324<<20 {
		t.Errorf("NominalBytes = %d", set.NominalBytes)
	}
	if len(set.Squiggles) != 120 {
		t.Errorf("squiggle count = %d", len(set.Squiggles))
	}
	sq := set.Squiggles[0]
	// Each base contributes >= 3 samples (>=2 dwell + 1 boundary).
	if len(sq.Samples) < 3*sq.Truth.Len() {
		t.Errorf("squiggle too short: %d samples for %d bases", len(sq.Samples), sq.Truth.Len())
	}
}

func TestSquiggleLevelsSeparated(t *testing.T) {
	// Signal plateaus must stay close to their base's pore level so a
	// matched filter can classify them. With sigma = 0.03 and levels
	// 0.2 apart, 3-sigma stays within half the gap.
	set, err := AcinetobacterPittii(2)
	if err != nil {
		t.Fatal(err)
	}
	sq := set.Squiggles[0]
	for _, s := range sq.Samples {
		nearest := nearestLevel(s)
		if diff := abs(s - nearest); diff > 0.1 {
			t.Fatalf("sample %.3f is %.3f from nearest level; classification impossible", s, diff)
		}
	}
}

func nearestLevel(s float64) float64 {
	best, bestD := BoundaryLevel, abs(s-BoundaryLevel)
	for _, l := range PoreLevels {
		if d := abs(s - l); d < bestD {
			best, bestD = l, d
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSquiggleConfigValidation(t *testing.T) {
	base := SquiggleConfig{Name: "x", Reads: 1, BasesPerRead: 10, SamplesPerBase: 4, NoiseSigma: 0.02}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*SquiggleConfig){
		func(c *SquiggleConfig) { c.Reads = 0 },
		func(c *SquiggleConfig) { c.BasesPerRead = 0 },
		func(c *SquiggleConfig) { c.SamplesPerBase = 1 },
		func(c *SquiggleConfig) { c.NoiseSigma = -1 },
		func(c *SquiggleConfig) { c.NoiseSigma = 0.2 },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad squiggle config %d accepted", i)
		}
	}
}

func TestBaseIndexRoundTrip(t *testing.T) {
	for i, b := range []byte("ACGT") {
		idx, err := BaseIndex(b)
		if err != nil || idx != i {
			t.Errorf("BaseIndex(%c) = %d, %v", b, idx, err)
		}
	}
	if _, err := BaseIndex('N'); err == nil {
		t.Error("BaseIndex(N) succeeded")
	}
}

// Property: generated reads are never empty and never exceed ~2x the
// configured read length (insertions can lengthen them slightly).
func TestReadLengthBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rs, err := GenerateLongReads(LongReadConfig{
			Name: "p", Seed: seed, RefLen: 2000, ReadLen: 200, Coverage: 5,
			SubRate: 0.05, InsRate: 0.08, DelRate: 0.06, BackboneErrorRate: 0.05,
		})
		if err != nil {
			return false
		}
		for _, r := range rs.Reads {
			if r.Len() == 0 || r.Len() > 2*200+80 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
