package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"systrace/internal/telemetry"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("tracestat %v: exit %d; stderr: %s", args, code, errb.String())
	}
	return out.String()
}

// TestUsageErrors: every malformed invocation exits 2 with nothing on
// stdout. None of them may start a simulation, which the test's run
// time shows: a single boot takes about a second.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nosuch"},
		{"-workload", "sed"}, // flags before the subcommand
		{"report", "-os", "foo"},
		{"report", "-workload", "nosuch"},
		{"report", "-format", "json"},
		{"report", "extra"},
		{"metrics", "-format", "xml"},
		{"spans", "-format", "prom"},
		{"profile", "-format", "prom"},
		{"profile", "-every", "0"},
		{"serve"},
		{"serve", "-n", "3", "localhost:0"},
		{"view", "-every", "5"},
		{"view", "-bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("tracestat %v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("tracestat %v: wrote to stdout: %q", args, out.String())
		}
		if errb.Len() == 0 {
			t.Errorf("tracestat %v: no message on stderr", args)
		}
	}
}

func TestReport(t *testing.T) {
	out := runOK(t, "report", "-workload", "sed", "-os", "ultrix", "-seed", "1")
	if !strings.Contains(out, "traced sed on ultrix:") || !strings.Contains(out, "workload result: 678") {
		t.Errorf("unexpected report:\n%s", out)
	}
}

func TestView(t *testing.T) {
	out := runOK(t, "view", "-n", "6", "-skip", "100")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 8 || lines[6] != "" || !strings.Contains(lines[7], "events total") {
		t.Fatalf("want 6 event lines, a blank line and the summary, got:\n%s", out)
	}
	for _, l := range lines[:6] {
		if !strings.HasPrefix(l, "kernel ") && !strings.HasPrefix(l, "user") {
			t.Errorf("not an event line: %q", l)
		}
	}
}

func TestMetricsJSON(t *testing.T) {
	out := runOK(t, "metrics", "-format", "json", "-workload", "sed")
	var doc struct {
		Workload string             `json:"workload"`
		OS       string             `json:"os"`
		Seed     uint32             `json:"seed"`
		Metrics  telemetry.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if doc.Workload != "sed" || doc.OS != "ultrix" || doc.Seed != 1 || len(doc.Metrics.Metrics) == 0 {
		t.Errorf("unexpected document header: %s %s %d, %d series",
			doc.Workload, doc.OS, doc.Seed, len(doc.Metrics.Metrics))
	}
}
