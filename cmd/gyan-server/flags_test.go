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
		{"single", []string{"policy", "handler", "journal", "seed"}, nil},
		{"single", []string{"bus"}, nil}, // -bus sim, spelled out
		{"single", []string{"member-ttl"}, []string{"-member-ttl"}},
		{"single", []string{"journal", "member", "speedup"}, []string{"-member", "-speedup"}},

		{"tcp", []string{"bus", "addr", "member", "members", "peers", "journal", "seed", "speedup", "tick-real", "member-ttl"}, nil},
		{"tcp", []string{"bus", "listen-bus", "advertise", "addr"}, nil},
		{"tcp", []string{"bus", "member", "pprof"}, []string{"-pprof"}},
		{"tcp", []string{"bus", "policy", "handler"}, []string{"-policy", "-handler"}},
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
