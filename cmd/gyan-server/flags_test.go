package main

import (
	"strings"
	"testing"
)

// A flag the selected mode does not consume is an error naming it, never a
// silent no-op; the flag sets the benchmark, the loopback test and the README
// pass are accepted.
func TestCheckModeFlags(t *testing.T) {
	for _, tc := range []struct {
		mode    string
		set     []string
		ignored []string // nil: accepted
	}{
		{"single", []string{"addr", "journal", "pprof"}, nil},
		{"single", []string{"policy", "async-durable", "handler", "lease-ttl", "seed"}, nil},
		{"single", []string{"cluster-size", "bus"}, nil}, // -cluster-size 1 -bus sim, spelled out
		{"single", []string{"handler-id", "member-ttl"}, []string{"-handler-id", "-member-ttl"}},
		{"single", []string{"journal", "member", "speedup"}, []string{"-member", "-speedup"}},

		{"cluster", []string{"cluster-size", "handler-id", "member-ttl", "journal", "lease-ttl", "seed", "addr"}, nil},
		{"cluster", []string{"cluster-size", "pprof", "policy", "async-durable", "handler"},
			[]string{"-pprof", "-policy", "-async-durable", "-handler"}},
		{"cluster", []string{"cluster-size", "peers", "tick-real"}, []string{"-peers", "-tick-real"}},

		{"tcp", []string{"bus", "addr", "member", "members", "peers", "journal", "seed", "speedup", "tick-real", "member-ttl"}, nil},
		{"tcp", []string{"bus", "listen-bus", "advertise", "lease-ttl", "cluster-size"}, nil},
		{"tcp", []string{"bus", "member", "pprof"}, []string{"-pprof"}},
		{"tcp", []string{"bus", "policy", "async-durable", "handler", "handler-id"},
			[]string{"-policy", "-async-durable", "-handler", "-handler-id"}},
	} {
		err := checkModeFlags(tc.mode, tc.set)
		if tc.ignored == nil {
			if err != nil {
				t.Errorf("%s %v: rejected: %v", tc.mode, tc.set, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s %v: accepted, want %v rejected", tc.mode, tc.set, tc.ignored)
			continue
		}
		named, _, _ := strings.Cut(err.Error(), ":")
		if named != strings.Join(tc.ignored, ", ") {
			t.Errorf("%s %v: error names %q, want %v", tc.mode, tc.set, named, tc.ignored)
		}
	}
}
