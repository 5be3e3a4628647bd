package faults

import (
	"context"
	"errors"
	"flag"
	"io"
	"slices"
	"testing"
	"time"
)

func TestIsCancellation(t *testing.T) {
	if !IsCancellation(context.Canceled) || !IsCancellation(context.DeadlineExceeded) {
		t.Fatal("context errors are cancellations")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if !IsCancellation(ctx.Err()) {
		t.Fatal("cancelled ctx")
	}
	if IsCancellation(errors.New("faults: disk full")) || IsCancellation(nil) {
		t.Fatal("non-cancellation misclassified")
	}
}

// TestFlagsTimeout: a positive -timeout bounds the run context with a
// deadline, and 0 leaves it without one.
func TestFlagsTimeout(t *testing.T) {
	f := Flags{Timeout: time.Hour}
	ctx, cancel := f.Context()
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("-timeout must set a deadline")
	}
	f.Timeout = 0
	ctx2, cancel2 := f.Context()
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("no -timeout must mean no deadline")
	}
}

// TestRegister: Register installs -timeout and no other flag, and the
// parsed value decides whether the run context carries a deadline; a
// malformed duration is a usage error.
func TestRegister(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		want     time.Duration
		deadline bool
		badUsage bool
	}{
		{name: "unset"},
		{name: "zero", args: []string{"-timeout=0"}},
		{name: "positive", args: []string{"-timeout=250ms"}, want: 250 * time.Millisecond, deadline: true},
		{name: "malformed", args: []string{"-timeout=soon"}, badUsage: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("run", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var f Flags
			f.Register(fs)
			var names []string
			fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
			if !slices.Equal(names, []string{"timeout"}) {
				t.Fatalf("Register installs %v, want [timeout]", names)
			}
			if err := fs.Parse(tc.args); (err != nil) != tc.badUsage {
				t.Fatalf("Parse(%q) = %v, want usage error %v", tc.args, err, tc.badUsage)
			}
			if tc.badUsage {
				return
			}
			if f.Timeout != tc.want {
				t.Fatalf("Timeout = %v, want %v", f.Timeout, tc.want)
			}
			ctx, cancel := f.Context()
			defer cancel()
			if _, ok := ctx.Deadline(); ok != tc.deadline {
				t.Fatalf("run context has a deadline: %v, want %v", ok, tc.deadline)
			}
		})
	}
}
