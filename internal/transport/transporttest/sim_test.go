package transporttest_test

import (
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/transport"
	"gyan/internal/transport/transporttest"
)

// The simulated deterministic bus must pass the same conformance suite as
// the real-socket transport.
func TestSimBusConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Harness {
		plan := faults.NewMsgPlan(1)
		b := transport.New(plan)
		now := new(time.Duration)
		return &transporttest.Harness{
			Members:  []string{"a", "b"},
			Endpoint: func(string) transport.Transport { return b },
			Now:      func() time.Duration { return *now },
			Advance:  func(d time.Duration) { *now += d },
			Kill:     b.Kill,
			Revive:   b.Revive,
			Cut:      plan.Cut,
			Heal:     plan.Heal,
		}
	})
}
