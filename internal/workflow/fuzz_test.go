package workflow

import (
	"fmt"
	"testing"
)

// FuzzBuildDAG drives graph construction with arbitrary step/edge layouts
// decoded from the fuzz input. Build must never panic, and when it accepts
// a graph the result must uphold the DAG invariants: a complete topological
// order with every parent placed before its children.
func FuzzBuildDAG(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x01, 0x02})       // chain
	f.Add([]byte{4, 0x00, 0x01, 0x01, 0x36}) // diamond-ish
	f.Add([]byte{2, 0x02, 0x01})             // cycle a<->b
	f.Add([]byte{1, 0x00})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := decodeSteps(data)
		d, err := Build("fuzz", steps, BuildOptions{})
		if err != nil {
			return
		}
		topo := d.Topo()
		if len(topo) != len(steps) {
			t.Fatalf("topo has %d entries for %d steps", len(topo), len(steps))
		}
		pos := make(map[string]int, len(topo))
		for i, id := range topo {
			if _, dup := pos[id]; dup {
				t.Fatalf("topo repeats %q", id)
			}
			pos[id] = i
		}
		for _, s := range d.Steps() {
			for _, p := range s.After {
				if pos[p] >= pos[s.ID] {
					t.Fatalf("parent %q not before %q in %v", p, s.ID, topo)
				}
			}
		}
		// The run state machine over any accepted DAG must drain: keep
		// completing ready steps and the run must terminate with every
		// step done.
		r := NewRun(d)
		for guard := 0; !r.Done(); guard++ {
			if guard > len(steps)+1 {
				t.Fatalf("run did not drain: counts %v", r.Counts())
			}
			ready := r.Ready()
			if len(ready) == 0 {
				t.Fatalf("no ready steps but not done: counts %v", r.Counts())
			}
			for _, id := range ready {
				r.MarkSubmitted(id)
				r.Complete(id, true, []int{0})
			}
		}
	})
}

// decodeSteps maps fuzz bytes onto a step list: the first byte is the step
// count (mod 32), then one byte per step encodes up to two parent indices
// (low/high nibble, pointing anywhere — including forward, self, or out of
// range, so validation paths are all reachable).
func decodeSteps(data []byte) []Step {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0]) % 32
	steps := make([]Step, 0, n)
	for i := 0; i < n; i++ {
		var enc byte
		if i+1 < len(data) {
			enc = data[i+1]
		}
		s := Step{ID: fmt.Sprintf("s%d", i), Tool: "tool"}
		for _, nib := range []byte{enc & 0x0f, enc >> 4} {
			if nib == 0 {
				continue // no edge
			}
			parent := int(nib) - 1
			if enc >= 0x80 {
				parent = i - parent // mostly-backward edges build deeper graphs
			}
			s.After = append(s.After, fmt.Sprintf("s%d", parent))
		}
		if len(s.After) == 0 {
			s.HasDataset = true
		}
		steps = append(steps, s)
	}
	return steps
}
