package serve

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"repro"
)

// maxCachedRows bounds the answer sets worth caching: beyond this the
// entry would dominate the LRU for little replay benefit, so the result
// is streamed but not stored.
const maxCachedRows = 4096

// resultCache is the LRU in front of evaluation. Keys bind the plan-cache
// key, the bound constants, and the EDB version (resultKey), so a key can
// never outlive the data it summarizes: any AddFact bumps the version and
// every live key goes cold. Values are the exact tuples the populating
// evaluation emitted, in emission order — a hit replays them verbatim, so
// hit responses are byte-identical to the cold evaluation that filled the
// entry.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*list.Element
	order list.List // front = most recently used; values are *cacheEntry
}

type cacheEntry struct {
	key  string
	rows [][]string
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, m: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) ([][]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).rows, true
	}
	return nil, false
}

// put stores a copy of rows: the evaluation rendered them into chunks whose
// unused tails the cache should not keep alive.
func (c *resultCache) put(key string, rows [][]string) {
	if len(rows) > maxCachedRows {
		return
	}
	rows = compact(rows)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).rows = rows
		c.order.MoveToFront(el)
		return
	}
	c.m[key] = c.order.PushFront(&cacheEntry{key: key, rows: rows})
	for len(c.m) > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.m, el.Value.(*cacheEntry).key)
	}
}

// compact copies rows into one exact-size backing array, each row capped at
// its own width.
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

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// resultKey names one cacheable result: the compiled plan (strategy,
// shape), the bound constants (length-prefixed, so no
// argument bytes can collide with the framing), and the EDB version the
// answer was computed against.
func resultKey(pq *mpq.PreparedQuery, args []string, version uint64) string {
	var b strings.Builder
	b.WriteString(pq.CacheKey())
	for _, a := range args {
		fmt.Fprintf(&b, "\x00%d:%s", len(a), a)
	}
	fmt.Fprintf(&b, "\x00v%d", version)
	return b.String()
}
