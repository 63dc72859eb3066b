package campaign

import (
	"context"
	"time"

	"repro/internal/profiling"
)

// SetExec makes a campaign run with opt execute each cell attempt
// through exec instead of a profiling session, and retry after backoff.
// It is the Options.exec seam for the external campaign_test package.
func SetExec(opt *Options, exec func(context.Context, Cell) (*profiling.RunReport, error), backoff time.Duration) {
	opt.exec, opt.retryBackoff = exec, backoff
}
