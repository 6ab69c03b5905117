package report

import (
	"strings"
	"testing"
	"time"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Fig. 3", "threads", "cpu", "gpu")
	tb.AddRow("1", "6.80 s", "1.72 s")
	tb.AddRow("16", "2.35 s", "1.66 s")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== Fig. 3 ==") {
		t.Errorf("title line = %q", lines[0])
	}
	// Header and data rows must share column offsets.
	hIdx := strings.Index(lines[1], "cpu")
	rIdx := strings.Index(lines[3], "6.80 s")
	if hIdx != rIdx {
		t.Errorf("columns misaligned: header 'cpu' at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if !strings.Contains(tb.String(), "only") {
		t.Fatal("short row lost")
	}
}

func TestFormatters(t *testing.T) {
	if got := Seconds(3220 * time.Millisecond); got != "3.22 s" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Hours(216 * time.Hour); got != "216 h" {
		t.Errorf("Hours = %q", got)
	}
	if got := Speedup(4*time.Second, 2*time.Second); got != "2.0x" {
		t.Errorf("Speedup = %q", got)
	}
	if got := Speedup(time.Second, 0); got != "inf" {
		t.Errorf("Speedup div0 = %q", got)
	}
	if got := Pct(69.95); got != "69.9%" && got != "70.0%" {
		t.Errorf("Pct = %q", got)
	}
}
