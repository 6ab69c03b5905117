package sim

import (
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock Now() = %v, want 0", got)
	}
}

func TestClockAdvanceToIsMonotone(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(10 * time.Second)
	c.AdvanceTo(5 * time.Second) // must not move backwards
	if got := c.Now(); got != 10*time.Second {
		t.Fatalf("AdvanceTo past instant moved clock to %v", got)
	}
	c.AdvanceTo(15 * time.Second)
	if got := c.Now(); got != 15*time.Second {
		t.Fatalf("AdvanceTo(15s) left clock at %v", got)
	}
}
