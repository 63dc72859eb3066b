// Supervisor: the per-cell fault boundary of a campaign. The paper's
// premise is that fleet measurements are not repeatable — a campaign
// that dies halfway loses data that cannot be re-collected — so the
// collection pipeline itself must survive faults, not just model them.
// Every cell attempt runs behind three defenses: recover() converts a
// panicking cell into a classified CellError (with its stack) instead
// of killing the process; a watchdog deadline (Options.CellTimeout)
// stops a wedged simulation at its next cancellation poll instead of
// stranding a worker forever; and transient failures are retried with
// bounded exponential backoff whose jitter comes from the cell's own
// forked RNG, so the retry schedule — like everything else in a
// campaign — is a pure function of the matrix.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/profiling"
	"repro/internal/sim"
)

// Class classifies a cell failure for retry policy and reporting.
type Class string

const (
	// ClassTransient marks retryable failures: watchdog timeouts and
	// errors wrapped by Transient. A retry may change the outcome.
	ClassTransient Class = "transient"
	// ClassPermanent marks failures a retry cannot fix —
	// misconfiguration, unknown presets, validation errors.
	ClassPermanent Class = "permanent"
	// ClassPanic marks a panic recovered from the cell's execution.
	ClassPanic Class = "panic"
)

// PanicError is a panic recovered from a cell execution, preserving
// the panic value and the goroutine stack at the point of recovery.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("cell panicked: %v", e.Value) }

// transientError marks an error as retryable for Classify.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the supervisor classifies it as retryable.
// A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// Classify maps a non-nil cell failure to its supervisor class.
func Classify(err error) Class {
	var pe *PanicError
	var te *transientError
	switch {
	case errors.As(err, &pe):
		return ClassPanic
	case errors.As(err, &te), errors.Is(err, context.DeadlineExceeded):
		return ClassTransient
	default:
		return ClassPermanent
	}
}

// CellError records one failed cell together with the supervisor's
// verdict: how the failure is classified, how many times the cell was
// executed, and — for panics — the recovered stack.
type CellError struct {
	Cell     Cell
	Err      error
	Class    Class  // failure classification (transient/permanent/panic)
	Attempts int    // executions performed (1 means the cell was never retried)
	Stack    string // recovered goroutine stack when Class == ClassPanic
}

func (e CellError) Error() string {
	return fmt.Sprintf("%s: [%s, attempt %d] %v", e.Cell.ID, e.Class, e.Attempts, e.Err)
}

// Unwrap exposes the underlying failure for errors.Is/As chains.
func (e CellError) Unwrap() error { return e.Err }

// newCellError assembles the classified error for a terminally failed
// cell, lifting the stack out of a recovered panic.
func newCellError(cell Cell, err error, attempts int) CellError {
	ce := CellError{Cell: cell, Err: err, Class: Classify(err), Attempts: attempts}
	var pe *PanicError
	if errors.As(err, &pe) {
		ce.Stack = pe.Stack
	}
	return ce
}

// defaultRetryBackoff is the base delay before the first retry, doubled
// per attempt and jittered from the cell's forked RNG.
const defaultRetryBackoff = 50 * time.Millisecond

// superviseLabel seeds the retry-jitter RNG fork off the cell seed, so
// the backoff schedule never perturbs the cell's own derived streams
// (workload, faults) and stays reproducible across runs.
const superviseLabel = 0xbacc0ff

// execFn executes one cell attempt; tests substitute failure-injecting
// implementations through Options.exec.
type execFn func(context.Context, Cell) (*profiling.RunReport, error)

// supervise runs one cell under the full supervisor policy — panic
// isolation, per-attempt watchdog, classified retry with seed-derived
// jittered backoff — and returns the report, the number of attempts
// performed, and the terminal error (nil on success). Each attempt and
// retry lands in the ledger's record. When the campaign context itself
// fires, supervise returns ctx.Err() verbatim; callers treat that as
// cancellation, not as a cell failure.
func supervise(ctx context.Context, l *Ledger, cell Cell, exec execFn) (*profiling.RunReport, int, error) {
	opt := l.opt
	backoff := opt.retryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	jitter := sim.NewRNG(cell.Run.Seed).Fork(superviseLabel)
	for attempt := 1; ; attempt++ {
		name := "cell:" + cell.ID
		if attempt > 1 {
			name = fmt.Sprintf("%s:a%d", name, attempt)
		}
		l.started(cell, attempt)
		sp := opt.Tracer.Start(name, "session")
		report, err := attemptCell(ctx, l, cell, exec)
		sp.End()
		if err == nil {
			return report, attempt, nil
		}
		if ctx.Err() != nil {
			// The campaign, not the cell, stopped this attempt.
			return nil, attempt, ctx.Err()
		}
		if Classify(err) != ClassTransient || attempt > opt.Retries {
			return nil, attempt, err
		}
		l.retrying(cell, attempt, err)
		if _, ok := Backoff(ctx, backoff, attempt, jitter); !ok {
			return nil, attempt, ctx.Err()
		}
	}
}

// Backoff waits out the delay before retry number attempt (>= 1): base
// doubled per earlier retry, jittered to [0.5, 1.5)× by one draw from
// jitter. A jitter RNG forked off the campaign seed keeps the schedule
// reproducible while concurrent retry storms decorrelate instead of
// thundering together. It returns the delay, and false when ctx ended
// the wait first.
func Backoff(ctx context.Context, base time.Duration, attempt int, jitter *sim.RNG) (time.Duration, bool) {
	d := base << (attempt - 1)
	d = d/2 + time.Duration(jitter.Float64()*float64(d))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return d, false
	case <-t.C:
		return d, true
	}
}

// attemptCell executes a single attempt behind the panic boundary and
// the watchdog deadline. A deadline hit by the attempt's own context —
// while the campaign context is still live — is counted in the ledger
// and converted into a watchdog error (transient, hence retryable).
func attemptCell(ctx context.Context, l *Ledger, cell Cell, exec execFn) (report *profiling.RunReport, err error) {
	timeout := l.opt.CellTimeout
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			report = nil
			err = &PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()
	report, err = exec(actx, cell)
	if err != nil && actx.Err() != nil && ctx.Err() == nil {
		l.timedOut(cell)
		err = fmt.Errorf("watchdog: cell exceeded %v: %w", timeout, context.DeadlineExceeded)
	}
	return report, err
}
