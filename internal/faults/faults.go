// Package faults holds the failure-model surface every cmd/ binary
// shares (DESIGN.md §9): the exit codes, the -timeout flag that bounds a
// run with a deadline, and IsCancellation, which tells the anytime
// outcomes of that deadline from real failures. A what-if call cannot
// fail, so a run fails only on bad input, I/O, or a worker panic the
// pool contains.
package faults

import (
	"context"
	"errors"
)

// IsCancellation reports whether err is a context cancellation or
// deadline expiry — the "partial result" outcomes, as opposed to real
// failures.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
