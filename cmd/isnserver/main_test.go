package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidateFlags parses each command line into a config the way main does
// and checks that validate accepts the usable ones and names the flag of
// every value the servers cannot run with. It builds no shard and starts no
// listener.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // the flag the error must name; "" = accepted
	}{
		{nil, ""},
		{[]string{"-shards", "1", "-port", "65534"}, ""},
		{[]string{"-partial=false", "-timeout", "1ns", "-budget", "0.5"}, ""},
		{[]string{"-trace-sample", "0"}, ""},
		{[]string{"-trace-sample", "1"}, ""},
		{[]string{"-timeline-interval", "0", "-slo-target", "0.1"}, ""},
		{[]string{"-decision-ring", "1", "-span-ring", "1", "-timeline-ring", "1", "-slo-target", "99.9"}, ""},

		{[]string{"-shards", "0"}, "-shards"},
		{[]string{"-shards", "-1"}, "-shards"},
		{[]string{"-port", "65535"}, "-port"},
		{[]string{"-port", "65532", "-shards", "4"}, "-port"},
		{[]string{"-port", "0"}, "-port"},
		{[]string{"-port", "-8080"}, "-port"},
		{[]string{"-timeout", "0"}, "-timeout"},
		{[]string{"-timeout", "-1ms"}, "-timeout"},
		{[]string{"-budget", "0"}, "-budget"},
		{[]string{"-budget", "-40"}, "-budget"},
		{[]string{"-budget", "NaN"}, "-budget"},
		{[]string{"-budget", "+Inf"}, "-budget"},
		{[]string{"-trace-sample", "-0.1"}, "-trace-sample"},
		{[]string{"-trace-sample", "1.5"}, "-trace-sample"},
		{[]string{"-trace-sample", "NaN"}, "-trace-sample"},
		{[]string{"-decision-ring", "0"}, "-decision-ring"},
		{[]string{"-span-ring", "-1"}, "-span-ring"},
		{[]string{"-timeline-ring", "0"}, "-timeline-ring"},
		{[]string{"-timeline-interval", "-1s"}, "-timeline-interval"},
		{[]string{"-slo-target", "0"}, "-slo-target"},
		{[]string{"-slo-target", "100"}, "-slo-target"},
		{[]string{"-slo-target", "NaN"}, "-slo-target"},
	} {
		fs := flag.NewFlagSet("isnserver", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg := bindFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		err := cfg.validate()
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.args, err)
		case tc.bad != "" && err == nil:
			t.Errorf("%v: accepted, want an error naming %s", tc.args, tc.bad)
		case tc.bad != "" && !strings.Contains(err.Error(), tc.bad+" "):
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.bad)
		}
	}
}
