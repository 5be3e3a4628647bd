package faults

import (
	"context"
	"flag"
	"time"
)

// Exit codes shared by every cmd/ binary (DESIGN.md §9). ExitPartial is 3,
// not 2, because the flag package reserves 2 for usage errors.
const (
	// ExitComplete: the pipeline ran to completion.
	ExitComplete = 0
	// ExitFailed: a real failure — bad input, an I/O error, or a worker
	// panic contained by the pool.
	ExitFailed = 1
	// ExitPartial: the deadline (or a cancellation) cut the run short and
	// a best-so-far Partial result was produced.
	ExitPartial = 3
)

// Flags is the failure-model CLI surface shared by every cmd/ binary:
//
//	-timeout=<duration>  deadline for the whole run (0 = none); on expiry
//	                     the pipeline returns its best-so-far Partial
//	                     result and the binary exits with code 3
//
// Register the flag, then derive the run context with Context.
type Flags struct {
	Timeout time.Duration
}

// Register installs -timeout on fs (use flag.CommandLine in main).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.DurationVar(&f.Timeout, "timeout", 0,
		"deadline for the run (e.g. 30s); on expiry exit with the partial code carrying the best-so-far result (0 = no deadline)")
}

// Context returns the run context: Background, bounded by -timeout when
// one was given. Callers defer cancel.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	if f.Timeout > 0 {
		return context.WithTimeout(context.Background(), f.Timeout)
	}
	return context.WithCancel(context.Background())
}
