package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"

	"wardrop/internal/store"
)

// resultEpoch versions every cached result. Both cache tiers key a result
// by the epoch and the document's fingerprint, so a change that alters the
// bytes an unchanged document produces bumps it, and results cached or
// stored before the change become misses that are computed again. The
// fingerprint a response reports does not include it.
//
// Epoch 2: fluid commodities of 24 or more paths run the latency-ordered
// kernel, whose results differ from the dense one's at rounding level.
const resultEpoch = 2

// Cache tiers as reported in the X-Cache response header: an in-memory LRU
// hit, a durable-store hit (promoted into the LRU on the way out), or a miss
// that scheduled real work.
const (
	TierHit      = "hit"
	TierHitStore = "hit-store"
	TierMiss     = "miss"
)

// tieredCache is the server's two-tier result cache: the in-process LRU in
// front of an optional durable content-addressed store. Lookups that miss
// the LRU but hit the store promote the object back into memory, so a
// restarted server re-warms itself from disk as traffic arrives; writes go
// through to both tiers, so cached results survive restarts and the cache
// working set can exceed RAM by the store's budget.
type tieredCache struct {
	lru   *lru
	store *store.Store
	epoch int
}

func newTieredCache(entries int, st *store.Store) *tieredCache {
	return &tieredCache{lru: newLRU(entries), store: st, epoch: resultEpoch}
}

// key folds the cache's epoch into a fingerprint: the lowercase-hex
// SHA-256 of "<epoch>:<fingerprint>", which is also a valid store key.
func (c *tieredCache) key(fp string) string {
	sum := sha256.Sum256([]byte(strconv.Itoa(c.epoch) + ":" + fp))
	return hex.EncodeToString(sum[:])
}

// Get looks the fingerprint up through the tiers. tier is TierHit or
// TierHitStore on success and TierMiss otherwise; err reports a durable-tier
// read problem (corruption — already quarantined by the store — or IO),
// which callers count and then treat as a miss.
func (c *tieredCache) Get(kind, fp string) (body []byte, tier string, err error) {
	key := c.key(fp)
	if body, ok := c.lru.Get(kind + ":" + key); ok {
		return body, TierHit, nil
	}
	if c.store == nil {
		return nil, TierMiss, nil
	}
	body, err = c.store.Get(key)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, TierMiss, nil
		}
		return nil, TierMiss, err
	}
	c.lru.Add(kind+":"+key, body)
	return body, TierHitStore, nil
}

// Add writes the document through both tiers. The returned error reports a
// durable-tier write failure; the in-memory tier has already been updated,
// so the server keeps serving either way.
func (c *tieredCache) Add(kind, fp string, body []byte) error {
	key := c.key(fp)
	c.lru.Add(kind+":"+key, body)
	if c.store == nil {
		return nil
	}
	return c.store.Put(key, body)
}

// Len reports the in-memory tier's population.
func (c *tieredCache) Len() int { return c.lru.Len() }

// StoreStats reports the durable tier's census (zero value when no store is
// configured).
func (c *tieredCache) StoreStats() store.Stats {
	if c.store == nil {
		return store.Stats{}
	}
	return c.store.Stats()
}
