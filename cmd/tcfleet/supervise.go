package main

import (
	"flag"
	"fmt"
	"time"
)

// supervise is the per-cell supervision knob set of "tcfleet run": the
// watchdog deadline and the transient-failure retry budget, forwarded
// into every cell's supervisor (in-process or inside a shard worker).
type supervise struct {
	// CellTimeout is the per-cell watchdog deadline; 0 disables it.
	CellTimeout time.Duration
	// Retries is the maximum number of re-executions of a cell after a
	// transient failure (a cell runs at most Retries+1 times).
	Retries int
}

// Validate checks the supervisor configuration.
func (s supervise) Validate() error {
	if s.CellTimeout < 0 {
		return fmt.Errorf("negative cell timeout %v", s.CellTimeout)
	}
	if s.Retries < 0 {
		return fmt.Errorf("negative retry budget %d", s.Retries)
	}
	return nil
}

// bindSupervise registers -celltimeout and -retries on fs and returns
// the destination. Call fs.Parse, then Validate.
func bindSupervise(fs *flag.FlagSet) *supervise {
	s := &supervise{}
	fs.DurationVar(&s.CellTimeout, "celltimeout", 0,
		"per-cell watchdog deadline (e.g. 30s; 0 disables)")
	fs.IntVar(&s.Retries, "retries", 0,
		"max retries per cell for transient failures (watchdog timeouts, marked-transient errors)")
	return s
}

// shardConfig is the sharded-campaign knob set of "tcfleet run": how
// many worker processes a campaign splits across, where they run
// (local child processes, or remote tcfleet agents over TCP), and how
// many times a failed worker is respawned. Supervision timing is not a
// knob: the shard package counts the hang budget in heartbeat periods.
type shardConfig struct {
	// Shards is the number of worker processes; 0 or 1 runs the campaign
	// in-process (unless Agents is set, which implies sharding).
	Shards int
	// ShardRetries is the respawn budget per shard (-1 = shard default).
	ShardRetries int
	// Agents is the comma-separated host:port pool of remote tcfleet
	// agents; empty runs workers as local child processes.
	Agents string
	// KeyFile is the shared-key file authenticating supervisor and
	// agents to each other; required with Agents.
	KeyFile string
}

// Validate checks the shard supervision configuration.
func (s shardConfig) Validate() error {
	if s.Shards < 0 {
		return fmt.Errorf("negative shard count %d", s.Shards)
	}
	if s.ShardRetries < -1 {
		return fmt.Errorf("bad shard respawn budget %d", s.ShardRetries)
	}
	if s.Agents != "" && s.KeyFile == "" {
		return fmt.Errorf("-agents requires -keyfile (remote workers must authenticate)")
	}
	if s.KeyFile != "" && s.Agents == "" {
		return fmt.Errorf("-keyfile has no effect without -agents")
	}
	return nil
}

// bindShard registers -shards, -shardretries, -agents and -keyfile on
// fs and returns the destination. Call fs.Parse, then Validate.
func bindShard(fs *flag.FlagSet) *shardConfig {
	s := &shardConfig{ShardRetries: -1}
	fs.IntVar(&s.Shards, "shards", 0,
		"split the campaign across N crash-supervised worker processes (0 = in-process; defaults to the agent count with -agents)")
	fs.IntVar(&s.ShardRetries, "shardretries", -1,
		"respawn budget per shard before its remaining cells fail (-1 = default)")
	fs.StringVar(&s.Agents, "agents", "",
		"comma-separated host:port pool of remote tcfleet agents to run shard workers on (empty = local child processes)")
	fs.StringVar(&s.KeyFile, "keyfile", "",
		"shared-key file authenticating this supervisor and the remote agents to each other (required with -agents)")
	return s
}
