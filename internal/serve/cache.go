package serve

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"repro"
	"repro/internal/trace"
)

// maxCachedRows bounds the answer sets worth keeping: beyond this a view
// would dominate the budget for little replay benefit, so it is closed and
// the result streamed but not kept.
const maxCachedRows = 4096

// viewBudget bounds the bytes the live views retain together: their
// rendered rows plus each one's retained engine relations
// (mpq.Subscription.Retained). Config.ResultCacheSize bounds their number.
// A reach view over a 1,000-node cluster retains about 0.4 MB, so the
// budget holds some eighty of them.
const viewBudget = 24 << 20

// ageEvery is how many reads pass between halvings of the read counts, so
// that admission follows the recent workload.
const ageEvery = 4096

// resultCache is the LRU of live views in front of evaluation. A key binds
// the plan-cache key and the bound constants (resultKey), not the EDB
// version: a view is a Subscription over the key's retained evaluation,
// and a read at a newer version brings it forward by one delta round
// instead of evaluating afresh. A key gets a view only while the cache has
// room or when it has been read more often than the least recently used
// view it would displace; every key's reads are counted, and the counts
// halve every ageEvery reads.
//
// Locks: a request takes Server.evalMu's read side before any view's lock,
// holds at most one view lock at a time, and takes c.mu only briefly,
// inside or outside a view lock. An evicted view leaves the map at once and
// is closed under its own lock by the request that evicted it, after that
// request released its own view.
type resultCache struct {
	mu     sync.Mutex
	cap    int // views at most
	budget int // bytes the views retain at most
	stats  *trace.Stats
	m      map[string]*list.Element
	order  list.List // front = most recently read; values are *view
	bytes  int       // the views' retained bytes
	reads  map[string]int32
	since  int // reads since the counts last halved
}

// view is one live entry: a subscription over the key's retained
// evaluation and the rows its rounds rendered — the first round's in
// derivation order (the cold reply), then each later round's new rows.
// mu guards everything but bytes, which c.mu guards. A view whose sub is
// nil is closed; one whose rows are nil has not run its first round.
type view struct {
	key     string
	mu      sync.Mutex
	sub     *mpq.Subscription
	rows    [][]string
	version uint64 // the EDB version rows cover
	bytes   int
}

func newResultCache(capacity int, stats *trace.Stats) *resultCache {
	return &resultCache{cap: capacity, budget: viewBudget, stats: stats,
		m: make(map[string]*list.Element), reads: make(map[string]int32)}
}

// lookup counts one read of key and returns its view, or nil.
func (c *resultCache) lookup(key string) *view {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads[key]++
	if c.since++; c.since >= ageEvery {
		c.since = 0
		for k, n := range c.reads {
			if n /= 2; n == 0 {
				delete(c.reads, k)
			} else {
				c.reads[k] = n
			}
		}
	}
	if el, ok := c.m[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*view)
	}
	return nil
}

// admit gives key a view, not yet filled, when the cache has room for one
// more or key has been read more often than the least recently used view,
// which it then evicts. It returns nil when key gets no view, and the evicted views
// for the caller to close.
func (c *resultCache) admit(key string, pq *mpq.PreparedQuery, args []string) (*view, []*view) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return nil, nil // another request is filling it
	}
	var victims []*view
	// A new view is taken to retain what the average one does.
	if n := len(c.m); n >= c.cap || n > 0 && c.bytes+c.bytes/n > c.budget {
		back := c.order.Back()
		if back == nil || c.reads[key] <= c.reads[back.Value.(*view).key] {
			return nil, nil
		}
		victims = append(victims, c.drop(back))
	}
	sub, err := pq.Subscription(args...)
	if err != nil {
		return nil, victims
	}
	v := &view{key: key, sub: sub}
	c.m[key] = c.order.PushFront(v)
	c.publish()
	return v, victims
}

// settle records v's size after a round, or drops it when its rows passed
// maxCachedRows, then evicts least recently used views until the rest fit
// the byte budget. It returns the evicted views, v among them if it went.
// The caller holds v.mu.
func (c *resultCache) settle(v *view) []*view {
	size := -1
	if n := len(v.rows); n <= maxCachedRows {
		size = v.sub.Retained()
		if n > 0 {
			size += n * (24 + 16*len(v.rows[0])) // a row's slice header and its strings' headers
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[v.key]
	if !ok || el.Value != v {
		return nil // evicted meanwhile: the evictor closes it
	}
	defer c.publish()
	if size < 0 {
		return []*view{c.drop(el)}
	}
	c.bytes += size - v.bytes
	v.bytes = size
	var victims []*view
	for c.bytes > c.budget {
		victims = append(victims, c.drop(c.order.Back()))
	}
	return victims
}

// remove drops v from the cache if it is still there.
func (c *resultCache) remove(v *view) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[v.key]; ok && el.Value == v {
		c.drop(el)
		c.publish()
	}
}

// drop takes el's view out of the map and the byte count. c.mu is held.
func (c *resultCache) drop(el *list.Element) *view {
	v := el.Value.(*view)
	c.order.Remove(el)
	delete(c.m, v.key)
	c.bytes -= v.bytes
	return v
}

// publish updates the view gauges. c.mu is held.
func (c *resultCache) publish() {
	c.stats.SetResultViews(int64(len(c.m)), int64(c.bytes))
}

// closeViews closes evicted views, each under its own lock. The caller
// holds no view lock.
func closeViews(views []*view) {
	for _, v := range views {
		v.mu.Lock()
		v.close()
		v.mu.Unlock()
	}
}

// release unlocks v, which the caller holds, closing it first if it is
// among victims, then closes the other victims.
func release(v *view, victims []*view) {
	others := victims[:0]
	for _, w := range victims {
		if w == v {
			v.close()
		} else {
			others = append(others, w)
		}
	}
	v.mu.Unlock()
	closeViews(others)
}

// close hands v's retained evaluation back to its plan's pool. v.mu is
// held.
func (v *view) close() {
	if v.sub != nil {
		v.sub.Close()
		v.sub, v.rows = nil, nil
	}
}

// compact copies rows into one exact-size backing array, each row capped at
// its own width: the evaluation rendered them into chunks whose unused
// tails a view should not keep alive.
func compact(rows [][]string) [][]string {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	flat := make([]string, 0, n)
	out := make([][]string, len(rows))
	for i, r := range rows {
		flat = append(flat, r...)
		out[i] = flat[len(flat)-len(r) : len(flat) : len(flat)]
	}
	return out
}

// resultKey names one cacheable result: the compiled plan (strategy,
// shape) and the bound constants, length-prefixed so no argument bytes can
// collide with the framing. The EDB version is not part of it: a view
// follows the data forward.
func resultKey(pq *mpq.PreparedQuery, args []string) string {
	var b strings.Builder
	b.WriteString(pq.CacheKey())
	for _, a := range args {
		fmt.Fprintf(&b, "\x00%d:%s", len(a), a)
	}
	return b.String()
}
