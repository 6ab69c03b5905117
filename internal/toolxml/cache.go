package toolxml

import (
	"crypto/sha256"
	"sort"
	"sync"
	"sync/atomic"
)

// Parse caching. Wrapper XML is immutable text, yet every RegisterDefaultTools
// call — one per Galaxy instance, and the throughput experiments build
// thousands — re-unmarshalled the same documents and re-expanded the same
// macros. The registry here keys fully-parsed (and, for ExpandedTool,
// macro-expanded) masters by content hash and hands out deep clones, so the
// XML decoder runs once per distinct document for the life of the process.
// Keying by content rather than by symbol means an edited document is a
// different key: stale hits are impossible.

// toolCache maps content hashes to immutable parsed masters.
var toolCache sync.Map // [32]byte -> *Tool

// cacheHits and cacheMisses count registry lookups, for the benchmarks.
var cacheHits, cacheMisses atomic.Int64

// CacheStats returns the parse-cache hit and miss counts.
func CacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// Clone returns an independent deep copy of the tool. The scalar fields copy
// by value; every slice — including the anonymous-struct ones — is re-sliced
// into fresh backing arrays, and the macro-import block is re-pointed, so
// mutating the clone (the mapper patches requirement versions on copies)
// can never reach the cached master.
func (t *Tool) Clone() *Tool {
	c := *t
	if t.Macros != nil {
		m := *t.Macros
		m.Imports = append(m.Imports[:0:0], m.Imports...)
		c.Macros = &m
	}
	c.Requirements.Expand = append(t.Requirements.Expand[:0:0], t.Requirements.Expand...)
	c.Requirements.Items = append(t.Requirements.Items[:0:0], t.Requirements.Items...)
	c.Requirements.Containers = append(t.Requirements.Containers[:0:0], t.Requirements.Containers...)
	c.Inputs.Params = append(t.Inputs.Params[:0:0], t.Inputs.Params...)
	for i, p := range c.Inputs.Params {
		c.Inputs.Params[i].Options = append(p.Options[:0:0], p.Options...)
	}
	c.Outputs.Data = append(t.Outputs.Data[:0:0], t.Outputs.Data...)
	return &c
}

// ParseCached is Parse behind the content-hash registry: the first call for
// a document pays the XML decode, later calls clone the cached master.
func ParseCached(doc string) (*Tool, error) {
	key := sha256.Sum256([]byte(doc))
	if v, ok := toolCache.Load(key); ok {
		cacheHits.Add(1)
		return v.(*Tool).Clone(), nil
	}
	t, err := Parse(doc)
	if err != nil {
		return nil, err
	}
	cacheMisses.Add(1)
	// Store a private master so the returned value stays mutable. A racing
	// double-parse stores twice; both masters are identical, last wins.
	toolCache.Store(key, t.Clone())
	return t, nil
}

// ExpandedTool parses a wrapper document, expands its macro imports against
// the given macro files (name -> document), and caches the fully-expanded
// result. The cache key covers the wrapper and every macro document, so
// changing any input re-parses.
func ExpandedTool(doc string, macros map[string]string) (*Tool, error) {
	h := sha256.New()
	h.Write([]byte(doc))
	names := make([]string, 0, len(macros))
	for name := range macros {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte{0})
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(macros[name]))
	}
	var key [32]byte
	h.Sum(key[:0])

	if v, ok := toolCache.Load(key); ok {
		cacheHits.Add(1)
		return v.(*Tool).Clone(), nil
	}
	t, err := Parse(doc)
	if err != nil {
		return nil, err
	}
	files := make(map[string]*MacroFile, len(macros))
	for name, mdoc := range macros {
		mf, err := ParseMacros(mdoc)
		if err != nil {
			return nil, err
		}
		files[name] = mf
	}
	if err := t.ExpandMacros(files); err != nil {
		return nil, err
	}
	cacheMisses.Add(1)
	toolCache.Store(key, t.Clone())
	return t, nil
}
