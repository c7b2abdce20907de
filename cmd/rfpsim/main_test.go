package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/service"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
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

// TestTraceSampledRunMatchesDaemon: rfpsim -trace F -sample runs, and its
// statistics and replay plan equal the daemon's sampled result for a
// trace_b64 request carrying the same bytes, windows and configuration.
func TestTraceSampledRunMatchesDaemon(t *testing.T) {
	spec, ok := trace.ByName("spec06_hmmer")
	if !ok {
		t.Fatal("catalog workload spec06_hmmer missing")
	}
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	g := spec.New()
	var op isa.MicroOp
	for i := 0; i < 30000; i++ {
		g.Next(&op)
		if err := w.Write(&op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hmmer.rfpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	const warmup, measure = 5000, 20000

	// The job rfpsim -trace path -rfp -warmup 5000 -measure 20000 -sample
	// builds and runs.
	cfg, err := parseConfig(t, "-rfp")
	if err != nil {
		t.Fatal(err)
	}
	job := runner.Job{
		Config:      cfg,
		WarmupUops:  warmup,
		MeasureUops: measure,
		Seeds:       1,
		Sampling:    &runner.Sampling{},
	}
	job.Spec, job.NewGen, err = traceSource(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sample.RunResult(context.Background(), job)
	if err != nil {
		t.Fatalf("rfpsim -trace -sample: %v", err)
	}

	daemonJob, _, err := service.ResolveJob(service.SimRequest{
		TraceB64:    base64.StdEncoding.EncodeToString(buf.Bytes()),
		Config:      service.ConfigSpec{RFP: true},
		WarmupUops:  warmup,
		MeasureUops: measure,
		Sampling:    &service.SamplingSpec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sample.RunResult(context.Background(), daemonJob)
	if err != nil {
		t.Fatal(err)
	}

	gotJSON, err := json.Marshal(got.Stats)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("rfpsim stats differ from the daemon's:\nrfpsim: %s\ndaemon: %s", gotJSON, wantJSON)
	}
	if got.Plan == nil || len(got.Plan.Points) == 0 {
		t.Fatalf("sampled run reported no replay points: %+v", got.Plan)
	}
	gotPlan, wantPlan := *got.Plan, *want.Plan
	gotPlan.Workload, wantPlan.Workload = "", "" // named after the file vs. the digest
	if !reflect.DeepEqual(gotPlan, wantPlan) {
		t.Errorf("replay plans differ:\nrfpsim: %+v\ndaemon: %+v", gotPlan, wantPlan)
	}
}
