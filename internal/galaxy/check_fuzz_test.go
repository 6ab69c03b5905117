package galaxy

import (
	"strings"
	"testing"

	"gyan/internal/workload"
)

// FuzzCheckParams holds the submit check to its promise over (wrapper,
// params, dataset): it never panics, and a param set it accepts builds a
// dict that every executor's typed reads parse. An executor reads its params
// before it looks at its dataset, so given none it must answer with the
// dataset error and nothing else — a typed read that fails panics.
func FuzzCheckParams(f *testing.F) {
	g := New(nil)
	if err := g.RegisterDefaultTools(); err != nil {
		f.Fatal(err)
	}
	if err := g.RegisterGenomicsTools(); err != nil {
		f.Fatal(err)
	}
	tools := g.Tools()
	datasets := []any{nil, &workload.ReadSet{}, &workload.SquiggleSet{}, struct{}{}}
	for i, b := range tools {
		for _, p := range b.XML.Inputs.Params {
			f.Add(uint8(i), uint8(0), p.Name, p.Default(), "scale", "0.01")
			f.Add(uint8(i), uint8(1), p.Name, "", KeyParam, "7")
			f.Add(uint8(i), uint8(2), p.Name, "-1", "scale", "1")
		}
		f.Add(uint8(i), uint8(3), "scale", "NaN", "scael", "0.001")
		f.Add(uint8(i), uint8(0), "threads", "99999999999999999999", "decoder", "beam")
	}
	f.Fuzz(func(t *testing.T, tool, dataset uint8, k1, v1, k2, v2 string) {
		b := tools[int(tool)%len(tools)]
		params := map[string]string{k1: v1, k2: v2}
		if b.check(params, datasets[int(dataset)%len(datasets)]) != nil {
			return
		}
		for _, gpu := range []bool{false, true} {
			dict, err := BuildParamDict(b.XML, params, gpu)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Exec(ExecRequest{Params: dict}); err == nil || !strings.Contains(err.Error(), " needs a ") {
				t.Fatalf("%s accepted %v, but its executor answered %v without a dataset", b.XML.ID, params, err)
			}
		}
	})
}
