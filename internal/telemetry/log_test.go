package telemetry

import (
	"strings"
	"testing"
	"time"
)

// TestLoggerGolden pins the logfmt shape the CLIs emit: each line opens
// with the time attribute, then the level, the message and the pairs.
func TestLoggerGolden(t *testing.T) {
	var sb strings.Builder
	log := NewLogger(&sb)
	log.Info("compressed workload", "variant", "ISUM", "selected", 20, "of", 1000)
	log.Warn("deadline reached; output is the best-so-far selection", "rounds", 7)
	log.Debug("below the Info level")
	const golden = `level=INFO msg="compressed workload" variant=ISUM selected=20 of=1000
level=WARN msg="deadline reached; output is the best-so-far selection" rounds=7
`
	var got strings.Builder
	for _, line := range strings.SplitAfter(sb.String(), "\n") {
		if line == "" {
			continue
		}
		ts, rest, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(ts, "time=") {
			t.Fatalf("log line lacks a leading time attr: %q", line)
		}
		got.WriteString(rest)
	}
	if got.String() != golden {
		t.Errorf("log output mismatch\n got: %q\nwant: %q", got.String(), golden)
	}
}

// TestLoggerIncludesTime: the production logger keeps the timestamp, and
// its value parses as an RFC 3339 time.
func TestLoggerIncludesTime(t *testing.T) {
	var sb strings.Builder
	NewLogger(&sb).Info("x")
	attr, _, _ := strings.Cut(sb.String(), " ")
	ts, ok := strings.CutPrefix(attr, "time=")
	if !ok {
		t.Fatalf("production logger output lacks time attr: %q", sb.String())
	}
	if _, err := time.Parse(time.RFC3339, ts); err != nil {
		t.Errorf("time attr %q: %v", ts, err)
	}
}
