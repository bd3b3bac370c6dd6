package column

import (
	"fmt"

	"fusedscan/internal/expr"
)

// Zone summarizes one fixed-size row range of a column for data skipping —
// Moerkotte's Small Materialized Aggregates. Min/Max hold stored bits
// (Column.Raw representation) of the zone's least and greatest non-NULL,
// non-NaN rows in the value order (expr.OrderKey).
type Zone struct {
	Min, Max uint64
	HasCmp   bool // at least one non-NULL, non-NaN row (Min/Max defined)
	HasValid bool // at least one non-NULL row
	HasNaN   bool // at least one non-NULL NaN row (float columns)
}

// ZoneMap is a per-column array of Zones at a fixed granularity, used by
// the scan driver to prove whole chunks cannot satisfy a predicate.
//
// Zone maps describe the column contents at build time; the engine's table
// registry treats registered tables as immutable, which is what makes the
// lazily built, cached maps safe to consult concurrently.
type ZoneMap struct {
	rowsPerZone int
	typ         expr.Type
	zones       []Zone
}

// RowsPerZone returns the granularity the map was built at.
func (zm *ZoneMap) RowsPerZone() int { return zm.rowsPerZone }

// Zones returns the number of zones.
func (zm *ZoneMap) Zones() int { return len(zm.zones) }

// Zone returns zone i, which covers rows [i*RowsPerZone, (i+1)*RowsPerZone).
func (zm *ZoneMap) Zone(i int) Zone { return zm.zones[i] }

// ZoneMap returns the column's zone map at the given granularity, building
// and caching it on first use. Concurrency-safe.
func (c *Column) ZoneMap(rowsPerZone int) *ZoneMap {
	if rowsPerZone <= 0 {
		panic(fmt.Sprintf("column %s: rowsPerZone must be positive, got %d", c.name, rowsPerZone))
	}
	c.zmMu.Lock()
	defer c.zmMu.Unlock()
	if zm, ok := c.zoneMaps[rowsPerZone]; ok {
		return zm
	}
	zm := buildZoneMap(c, rowsPerZone)
	if c.zoneMaps == nil {
		c.zoneMaps = make(map[int]*ZoneMap)
	}
	c.zoneMaps[rowsPerZone] = zm
	return zm
}

func buildZoneMap(c *Column, rowsPerZone int) *ZoneMap {
	n := c.Len()
	zm := &ZoneMap{
		rowsPerZone: rowsPerZone,
		typ:         c.typ,
		zones:       make([]Zone, (n+rowsPerZone-1)/rowsPerZone),
	}
	if p := c.packed; p != nil && rowsPerZone%p.chunkRows == 0 && c.packOff%p.chunkRows == 0 {
		// Packed fast path: each zone covers whole packed chunks, whose
		// metadata already carries the exact valid-row min/max keys — the
		// map is assembled in O(chunks) without touching a single lane
		// (and without materializing a decoded copy).
		chunksPerZone := rowsPerZone / p.chunkRows
		firstChunk := c.packOff / p.chunkRows
		for z := range zm.zones {
			zone := &zm.zones[z]
			begin := firstChunk + z*chunksPerZone
			minKey, maxKey, ok := chunkBounds(p.chunks[begin:min(begin+chunksPerZone, len(p.chunks))])
			if ok {
				zone.Min, zone.Max = KeyToRaw(c.typ, minKey), KeyToRaw(c.typ, maxKey)
				zone.HasCmp, zone.HasValid = true, true
			}
		}
		return zm
	}
	for z := range zm.zones {
		begin := z * rowsPerZone
		end := begin + rowsPerZone
		if end > n {
			end = n
		}
		zone := &zm.zones[z]
		var minKey, maxKey uint64
		for i := begin; i < end; i++ {
			if c.Null(i) {
				continue
			}
			zone.HasValid = true
			raw := c.Raw(i)
			if expr.IsNaNBits(c.typ, raw) {
				zone.HasNaN = true
				continue
			}
			switch k := expr.OrderKey(c.typ, raw); {
			case !zone.HasCmp:
				zone.Min, zone.Max, minKey, maxKey, zone.HasCmp = raw, raw, k, k, true
			case k < minKey:
				zone.Min, minKey = raw, k
			case k > maxKey:
				zone.Max, maxKey = raw, k
			}
		}
	}
	return zm
}

// MayMatch reports whether any row in [begin, end) can satisfy
// "col op needle" (needle in stored-bits form). NULL rows never satisfy a
// comparison, so an all-NULL range returns false. A false return is a
// proof; a true return is only "cannot rule out".
func (zm *ZoneMap) MayMatch(begin, end int, op expr.CmpOp, needleRaw uint64) bool {
	if end <= begin {
		return false
	}
	first := begin / zm.rowsPerZone
	last := (end - 1) / zm.rowsPerZone
	if first < 0 {
		first = 0
	}
	for z := first; z <= last && z < len(zm.zones); z++ {
		if zm.zones[z].mayMatch(zm.typ, op, needleRaw) {
			return true
		}
	}
	return false
}

func (zone *Zone) mayMatch(t expr.Type, op expr.CmpOp, needle uint64) bool {
	if !zone.HasValid {
		return false
	}
	if expr.IsNaNBits(t, needle) {
		// Every comparison against a NaN needle is false except Ne, which
		// is true for any value (including NaN).
		return op == expr.Ne
	}
	if zone.HasNaN && op == expr.Ne {
		return true // a NaN row always differs from a non-NaN needle
	}
	if !zone.HasCmp {
		return false // only NaN rows, and op is not Ne
	}
	// The bounds and the needle are not NaN, where the value order and the
	// predicate's comparison agree (-0.0 and +0.0 are equal in both).
	lo, hi, k := expr.OrderKey(t, zone.Min), expr.OrderKey(t, zone.Max), expr.OrderKey(t, needle)
	switch op {
	case expr.Eq:
		return lo <= k && k <= hi
	case expr.Ne:
		// Unsatisfiable only when every value equals the needle.
		return lo != k || hi != k
	case expr.Lt:
		return lo < k
	case expr.Le:
		return lo <= k
	case expr.Gt:
		return hi > k
	case expr.Ge:
		return hi >= k
	}
	return true
}
