package expr

import (
	"sync"

	"ids/internal/dict"
)

// CachedResolver memoizes ID resolution over an inner Resolver.
// Dictionary IDs are immutable once assigned (the dictionary is
// append-only), so the cache never invalidates; its size is bounded by
// the dictionary size. This removes the per-row Decode + ParseFloat
// from the FILTER, ORDER BY and aggregate hot paths, which resolve the
// same handful of literals millions of times per query.
type CachedResolver struct {
	inner Resolver
	m     sync.Map // dict.ID -> Value
}

// NewCachedResolver wraps inner with an ID-resolution memo.
func NewCachedResolver(inner Resolver) *CachedResolver {
	return &CachedResolver{inner: inner}
}

// ResolveID implements Resolver.
func (c *CachedResolver) ResolveID(id dict.ID) Value {
	if v, ok := c.m.Load(id); ok {
		return v.(Value)
	}
	v := c.inner.ResolveID(id)
	if !v.IsNull() {
		// Negative results are not cached: an ID unknown now may be
		// assigned by a later update.
		c.m.Store(id, v)
	}
	return v
}
