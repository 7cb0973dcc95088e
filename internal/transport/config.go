package transport

import (
	"time"

	"repro/internal/trace"
)

// Config tunes the failure handling of the TCP transport: how long the
// first dial to a peer may keep retrying, and how often liveness heartbeats
// flow. The zero value selects the defaults below.
type Config struct {
	// DialTimeout is the window for the first connection to one peer site:
	// sites start in any order, so a refused dial is retried until it runs
	// out, and then the peer is declared down. An established connection
	// is never re-dialed. It also bounds a write the peer has stopped
	// reading (see slidingConn). Default 10s.
	DialTimeout time.Duration
	// HeartbeatInterval is the period of liveness frames on each site-pair
	// connection, written by both ends. Zero or less selects the default
	// (500ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a connection may stay *silent* before
	// it is considered broken and its peer declared down. The deadline
	// slides forward on every successful read, so a large frame streaming
	// slowly does not trip it while bytes keep arriving. Default
	// 4×HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// Stats, when non-nil, receives transport counters (heartbeats sent,
	// peers declared down, dropped sends). mpqd serves the same Stats as
	// Prometheus text on -metrics (via
	// internal/trace/export.WritePrometheus); doc/OBSERVABILITY.md maps
	// each counter to its paper concept.
	Stats *trace.Stats
	// Logf, when non-nil, receives one line per notable failure event
	// (peer down, per-peer drop totals at shutdown).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
	if c.Stats == nil {
		c.Stats = &trace.Stats{}
	}
	return c
}

// PeerDown reports that a peer site was declared down: its first dial
// failed for the whole DialTimeout window, or an established connection to
// it broke — a read or write error, silence past HeartbeatTimeout, or an
// end without the peer's Bye. Delivered on TCP.Down and FaultNet.Down; the
// engine aborts the query with ErrSiteDown when it receives one (see
// engine.Options.PeerDown).
type PeerDown struct {
	Site int
	Err  error
}
