package engine

import (
	"maps"
	"sync"
	"sync/atomic"

	"soarpsme/internal/rete"
)

// ImageCache is a process-wide, ref-counted cache of compiled program
// images keyed by canonical program hash. Concurrent requests for the same
// program are deduplicated (one compile, everybody waits on it); released
// images are kept warm so a session churn of one program never recompiles,
// up to a bound (warmImages) so a churn of distinct programs cannot leak.
type ImageCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	img   *ProgramImage
	err   error
	ready chan struct{}
	refs  int // live sessions holding the image
}

// warmImages is how many images stay resident before a miss starts dropping
// the ones no session holds: the serving layer's default session limit, so a
// full server of distinct programs still restarts each of them warm.
const warmImages = 64

// NewImageCache returns an empty cache.
func NewImageCache() *ImageCache {
	return &ImageCache{entries: map[string]*cacheEntry{}}
}

// Get returns the compiled image for a program, compiling it on first use.
// hit reports whether the image was already cached (a concurrent request
// that waits on another goroutine's in-flight compile counts as a hit: it
// paid no compile). Each successful Get takes a reference; pair it with
// Release when the session ends.
func (c *ImageCache) Get(src string, opts rete.Options) (img *ProgramImage, hit bool, err error) {
	key := ProgramHash(src, opts)
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		e.refs++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, e.err
		}
		c.hits.Add(1)
		return e.img, true, nil
	}
	e = &cacheEntry{ready: make(chan struct{}), refs: 1}
	c.entries[key] = e
	if len(c.entries) > warmImages {
		maps.DeleteFunc(c.entries, func(_ string, old *cacheEntry) bool { return old.refs == 0 })
	}
	c.mu.Unlock()

	c.misses.Add(1)
	e.img, e.err = CompileProgram(src, opts)
	close(e.ready)
	if e.err != nil {
		// Failed compiles are not cached: a later request retries.
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
		return nil, false, e.err
	}
	return e.img, false, nil
}

// Release drops one session's reference. A zero-ref image stays cached
// (keep-warm: the topology's whole point is surviving session churn).
func (c *ImageCache) Release(img *ProgramImage) {
	c.mu.Lock()
	if e, ok := c.entries[img.Hash]; ok && e.refs > 0 {
		e.refs--
	}
	c.mu.Unlock()
}

// CacheStats is a point-in-time view of the cache.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Live is the number of distinct compiled images resident.
	Live int `json:"live"`
	// Sessions is the total reference count across images.
	Sessions int `json:"sessions"`
}

// Stats returns cache counters.
func (c *ImageCache) Stats() CacheStats {
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	c.mu.Lock()
	s.Live = len(c.entries)
	for _, e := range c.entries {
		s.Sessions += e.refs
	}
	c.mu.Unlock()
	return s
}
