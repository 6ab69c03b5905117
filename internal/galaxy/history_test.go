package galaxy

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestHistoryExportImportRoundTrip(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit("seqstats", nil, rs, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	g.Run()

	var b strings.Builder
	if err := g.ExportHistory(&b); err != nil {
		t.Fatal(err)
	}
	var recs []HistoryRecord
	for dec := json.NewDecoder(strings.NewReader(b.String())); dec.More(); {
		var rec HistoryRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("history has %d records", len(recs))
	}
	if recs[0].Tool != "racon" || recs[0].State != "ok" {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[0].OutputDigest == "" || len(recs[0].OutputDigest) != 64 {
		t.Fatalf("record 0 digest = %q", recs[0].OutputDigest)
	}
	if recs[0].OutputDigest == recs[1].OutputDigest {
		t.Error("different tools share a digest")
	}
}
