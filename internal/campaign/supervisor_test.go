package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/profiling"
)

// fakeReport synthesizes a minimal deterministic run report for
// supervisor tests that inject their own cell execution.
func fakeReport(cell Cell) *profiling.RunReport {
	return &profiling.RunReport{
		Schema: profiling.ReportSchemaVersion,
		App:    "fake", SoC: cell.Run.SoC, Seed: cell.Run.Seed,
		Cycles: cell.Run.Cycles, Resolution: cell.Run.Resolution,
		Confidence: 1,
		Params: map[string]profiling.ParamStats{
			"ipc": {Mean: float64(cell.Index), Min: 0, Max: 10, Windows: 8, Confidence: 1},
		},
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{errors.New("unknown SoC"), ClassPermanent},
		{Transient(errors.New("flaky")), ClassTransient},
		{fmt.Errorf("wrapped: %w", Transient(errors.New("flaky"))), ClassTransient},
		{fmt.Errorf("watchdog: %w", context.DeadlineExceeded), ClassTransient},
		{&PanicError{Value: "boom", Stack: "stack"}, ClassPanic},
		{fmt.Errorf("cell: %w", &PanicError{Value: 1}), ClassPanic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
}

// TestCampaignSupervisorPanicAndHang is the acceptance scenario: a
// campaign with one panicking cell and one hanging cell completes all
// other cells (through the real session pipeline) and reports both
// failures as classified CellErrors — the panic with its stack, the
// hang with the attempt count of its retried watchdog timeouts.
func TestCampaignSupervisorPanicAndHang(t *testing.T) {
	m := testMatrix()
	m.Cycles = 20_000
	reg := obs.New()
	res, err := Run(context.Background(), m, Options{
		Workers:      4,
		Obs:          reg,
		CellTimeout:  time.Second,
		Retries:      1,
		retryBackoff: time.Millisecond,
		exec: func(ctx context.Context, c Cell) (*profiling.RunReport, error) {
			switch c.Index {
			case 3:
				panic("injected boom")
			case 5:
				<-ctx.Done() // a wedged cell: only the watchdog gets it back
				return nil, ctx.Err()
			}
			return runCell(ctx, c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 || res.Failed != 2 || res.Canceled {
		t.Fatalf("result = completed %d, failed %d, canceled %v; want 6/2/false",
			res.Completed, res.Failed, res.Canceled)
	}
	if len(res.Errors) != 2 {
		t.Fatalf("errors = %v", res.Errors)
	}
	pe, he := res.Errors[0], res.Errors[1]
	if pe.Cell.Index != 3 || pe.Class != ClassPanic || pe.Attempts != 1 {
		t.Errorf("panic cell error = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "injected boom") {
		t.Errorf("panic error message lost the panic value: %v", pe)
	}
	if !strings.Contains(pe.Stack, "attemptCell") {
		t.Errorf("panic stack not captured:\n%s", pe.Stack)
	}
	if he.Cell.Index != 5 || he.Class != ClassTransient || he.Attempts != 2 {
		t.Errorf("hung cell error = %+v", he)
	}
	if !errors.Is(he.Err, context.DeadlineExceeded) {
		t.Errorf("hung cell error does not unwrap to DeadlineExceeded: %v", he.Err)
	}
	if got := reg.Counter("campaign_panics").Value(); got != 1 {
		t.Errorf("campaign_panics = %d", got)
	}
	if got := reg.Counter("campaign_timeouts").Value(); got != 2 {
		t.Errorf("campaign_timeouts = %d", got)
	}
	if got := reg.Counter("campaign_retries").Value(); got != 1 {
		t.Errorf("campaign_retries = %d", got)
	}
	if res.Retried != 1 {
		t.Errorf("Retried = %d, want 1", res.Retried)
	}
	// The healthy cells' aggregate must be present and exclude the dead.
	if res.Profile == nil || len(res.Profile.Runs) != 6 {
		t.Fatalf("profile missing or wrong size: %+v", res.Profile)
	}
}

// TestCampaignSupervisorTransientRetry verifies that a transiently
// failing cell succeeds on a later attempt, with every attempt counted
// and the rest of the campaign unaffected.
func TestCampaignSupervisorTransientRetry(t *testing.T) {
	m := testMatrix()
	var mu sync.Mutex
	attempts := map[int]int{}
	reg := obs.New()
	res, err := Run(context.Background(), m, Options{
		Workers:      2,
		Obs:          reg,
		Retries:      2,
		retryBackoff: time.Millisecond,
		exec: func(ctx context.Context, c Cell) (*profiling.RunReport, error) {
			mu.Lock()
			attempts[c.Index]++
			n := attempts[c.Index]
			mu.Unlock()
			if c.Index == 2 && n <= 2 {
				return nil, Transient(errors.New("flaky link"))
			}
			return fakeReport(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Cells || res.Failed != 0 {
		t.Fatalf("completed %d/%d, failed %d (errors %v)", res.Completed, res.Cells, res.Failed, res.Errors)
	}
	if attempts[2] != 3 {
		t.Errorf("flaky cell executed %d times, want 3", attempts[2])
	}
	if got := reg.Counter("campaign_retries").Value(); got != 2 {
		t.Errorf("campaign_retries = %d, want 2", got)
	}
	if res.Retried != 2 {
		t.Errorf("Retried = %d, want 2", res.Retried)
	}
}

// TestCampaignSupervisorRetryBudgetExhausted: a cell that stays
// transiently broken fails terminally after Retries+1 attempts, still
// classified transient.
func TestCampaignSupervisorRetryBudgetExhausted(t *testing.T) {
	m := testMatrix()
	res, err := Run(context.Background(), m, Options{
		Workers:      2,
		Retries:      2,
		retryBackoff: time.Millisecond,
		exec: func(ctx context.Context, c Cell) (*profiling.RunReport, error) {
			if c.Index == 1 {
				return nil, Transient(errors.New("always flaky"))
			}
			return fakeReport(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || len(res.Errors) != 1 {
		t.Fatalf("failed %d, errors %v", res.Failed, res.Errors)
	}
	ce := res.Errors[0]
	if ce.Class != ClassTransient || ce.Attempts != 3 {
		t.Errorf("exhausted cell error = %+v, want transient after 3 attempts", ce)
	}
}

// TestCampaignSupervisorCancelDuringBackoff: a campaign canceled while
// a cell waits out its retry backoff stops promptly and counts the
// cell as canceled, not failed.
func TestCampaignSupervisorCancelDuringBackoff(t *testing.T) {
	m := testMatrix()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, m, Options{
		Workers:      1,
		Retries:      5,
		retryBackoff: time.Hour, // without prompt cancellation the test times out
		exec: func(ctx context.Context, c Cell) (*profiling.RunReport, error) {
			time.AfterFunc(10*time.Millisecond, cancel)
			return nil, Transient(errors.New("flaky"))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled || res.Failed != 0 {
		t.Fatalf("canceled %v, failed %d (errors %v)", res.Canceled, res.Failed, res.Errors)
	}
}
