package bonito

import (
	"bytes"
	"testing"

	"gyan/internal/bioseq"
	"gyan/internal/workload"
)

func trainSet(t testing.TB, seed uint64, reads int) *workload.SquiggleSet {
	t.Helper()
	set, err := workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "train", Seed: seed, Reads: reads, BasesPerRead: 150,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestTrainLossDecreases(t *testing.T) {
	set := trainSet(t, 10, 8)
	_, stats, err := Train(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EpochLoss) != trainEpochs {
		t.Fatalf("recorded %d epoch losses", len(stats.EpochLoss))
	}
	first, last := stats.EpochLoss[0], stats.EpochLoss[len(stats.EpochLoss)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", first, last)
	}
	if stats.FinalAccuracy < 0.98 {
		t.Fatalf("training accuracy %.4f, want >= 0.98", stats.FinalAccuracy)
	}
	if stats.Samples == 0 {
		t.Fatal("no samples reported")
	}
}

func TestTrainedModelDecodesHeldOutReads(t *testing.T) {
	train := trainSet(t, 11, 10)
	heldOut := trainSet(t, 99, 5) // different seed: unseen squiggles
	net, _, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	for _, sq := range heldOut.Squiggles {
		call, _, err := net.Basecall(sq)
		if err != nil {
			t.Fatal(err)
		}
		if id := bioseq.Identity(call.Bases, sq.Truth.Bases); id < 0.98 {
			t.Fatalf("trained model identity %.4f on held-out read %s", id, sq.ID)
		}
	}
}

func TestTrainedMatchesPretrainedAccuracy(t *testing.T) {
	train := trainSet(t, 12, 10)
	eval := trainSet(t, 55, 5)
	trained, _, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	pretrained, err := NewPretrained()
	if err != nil {
		t.Fatal(err)
	}
	var accT, accP float64
	for _, sq := range eval.Squiggles {
		ct, _, err := trained.Basecall(sq)
		if err != nil {
			t.Fatal(err)
		}
		cp, _, err := pretrained.Basecall(sq)
		if err != nil {
			t.Fatal(err)
		}
		accT += bioseq.Identity(ct.Bases, sq.Truth.Bases)
		accP += bioseq.Identity(cp.Bases, sq.Truth.Bases)
	}
	n := float64(len(eval.Squiggles))
	if accT/n < accP/n-0.02 {
		t.Fatalf("trained model (%.4f) far below constructed model (%.4f)", accT/n, accP/n)
	}
}

func TestTrainConfigValidation(t *testing.T) {
	if _, _, err := Train(nil); err == nil {
		t.Error("nil set accepted")
	}
	// Label/sample mismatch is rejected.
	broken := trainSet(t, 2, 1)
	broken.Squiggles[0].Labels = broken.Squiggles[0].Labels[:1]
	if _, _, err := Train(broken); err == nil {
		t.Error("label/sample mismatch accepted")
	}
}

func TestTrainDeterministic(t *testing.T) {
	set := trainSet(t, 13, 4)
	_, s1, err := Train(set)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := Train(set)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.EpochLoss {
		if s1.EpochLoss[i] != s2.EpochLoss[i] {
			t.Fatalf("same-seed training diverged at epoch %d", i)
		}
	}
}

func TestDownloadRegistry(t *testing.T) {
	names := Models()
	if len(names) == 0 {
		t.Fatal("no models registered")
	}
	net, err := Download("dna_r9.4.1")
	if err != nil {
		t.Fatal(err)
	}
	if net == nil {
		t.Fatal("nil model")
	}
	if _, err := Download("dna_r99"); err == nil {
		t.Fatal("unknown model downloaded")
	}
}

func TestConvertRoundTrip(t *testing.T) {
	set := trainSet(t, 14, 5)
	var buf bytes.Buffer
	if err := WriteSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != set.Name || got.NominalBytes != set.NominalBytes {
		t.Fatalf("header mismatch: %s/%d", got.Name, got.NominalBytes)
	}
	if len(got.Squiggles) != len(set.Squiggles) {
		t.Fatalf("squiggle count %d != %d", len(got.Squiggles), len(set.Squiggles))
	}
	for i := range set.Squiggles {
		w, g := set.Squiggles[i], got.Squiggles[i]
		if w.ID != g.ID || w.Truth.String() != g.Truth.String() {
			t.Fatalf("squiggle %d identity mismatch", i)
		}
		if len(w.Samples) != len(g.Samples) {
			t.Fatalf("squiggle %d sample count mismatch", i)
		}
		for j := range w.Samples {
			if w.Samples[j] != g.Samples[j] || w.Labels[j] != g.Labels[j] {
				t.Fatalf("squiggle %d sample %d mismatch", i, j)
			}
		}
	}
}

func TestConvertTrainedFromDisk(t *testing.T) {
	// End-to-end: convert -> reload -> train.
	set := trainSet(t, 15, 6)
	var buf bytes.Buffer
	if err := WriteSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ReadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Train(reloaded)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalAccuracy < 0.98 {
		t.Fatalf("training from converted file reached %.4f accuracy", stats.FinalAccuracy)
	}
}

func TestReadSetRejectsCorruptInput(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("BSQ1"), // truncated after magic
		append([]byte("BSQ1"), 0xFF, 0xFF, 0xFF, 0xFF), // implausible length
	}
	for i, in := range cases {
		if _, err := ReadSet(bytes.NewReader(in)); err == nil {
			t.Errorf("corrupt input %d accepted", i)
		}
	}
	// Flip a truth base to an invalid letter.
	set := trainSet(t, 16, 1)
	var buf bytes.Buffer
	if err := WriteSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	idx := bytes.Index(data, set.Squiggles[0].Truth.Bases[:8])
	if idx < 0 {
		t.Fatal("could not locate truth bases in serialization")
	}
	data[idx] = 'N'
	if _, err := ReadSet(bytes.NewReader(data)); err == nil {
		t.Error("invalid truth base accepted")
	}
}

func TestWriteSetValidation(t *testing.T) {
	if err := WriteSet(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil set accepted")
	}
	set := trainSet(t, 17, 1)
	set.Squiggles[0].Labels = set.Squiggles[0].Labels[:2]
	if err := WriteSet(&bytes.Buffer{}, set); err == nil {
		t.Error("label mismatch accepted")
	}
}
