package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"rfpsim/internal/config"
)

func parseConfig(t *testing.T, args ...string) (config.Core, error) {
	t.Helper()
	fs := flag.NewFlagSet("rfpsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return buildConfig(*spec)
}

// TestRFPKnobsWithoutRFPRejected: the RFP tuning flags used to be ignored
// silently without -rfp; now they fail the way the daemon's spec does.
func TestRFPKnobsWithoutRFPRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-pat"}, {"-context"}, {"-confbits", "2"}, {"-ptentries", "512"},
	} {
		if _, err := parseConfig(t, args...); err == nil {
			t.Errorf("%v without -rfp built a config, want an error", args)
		}
		if _, err := parseConfig(t, append(args, "-rfp")...); err != nil {
			t.Errorf("%v -rfp: %v", args, err)
		}
	}
}

// TestConfigFlagsBuild: plain rfpsim and -rfp build the configurations
// they always did, and -clp alone builds RFP with the CLP schedule.
func TestConfigFlagsBuild(t *testing.T) {
	for _, c := range []struct {
		args []string
		want config.Core
	}{
		{nil, config.Baseline()},
		{[]string{"-rfp"}, config.Baseline().WithRFP()},
		{[]string{"-2x", "-rfp", "-confbits", "3"}, func() config.Core {
			c := config.Baseline2x().WithRFP()
			c.RFP.ConfidenceBits = 3
			return c
		}()},
	} {
		got, err := parseConfig(t, c.args...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v built %+v, want %+v", c.args, got, c.want)
		}
	}

	got, err := parseConfig(t, "-clp")
	if err != nil {
		t.Fatal(err)
	}
	want := config.Baseline().WithCLP()
	want.Name = got.Name // Build names it baseline+rfp; CLP shows in the stats
	if !got.RFP.Enabled || !got.RFP.UseCLP || !reflect.DeepEqual(got, want) {
		t.Errorf("-clp built %+v, want RFP with CLP %+v", got, want)
	}
}
