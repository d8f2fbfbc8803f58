package safecube

import "testing"

// checkCacheRepair covers the incremental-repair path of the
// generation-keyed level cache: after each fault mutation the facade
// patches the stale assignment through core.RepairLevels instead of
// recomputing cold, the event still counts as a cache miss (back-compat
// with the invalidation contract), a repairs counter distinguishes it,
// and the patched levels are bit-identical to a cold computation on a
// fresh cube carrying the same mutations.
func checkCacheRepair(t *testing.T, fresh func() *Cube, mutate ...func(*Cube) error) {
	t.Helper()
	c := fresh()
	reg := NewRegistry()
	c.Instrument(reg)
	c.ComputeLevels() // cold fill

	for i, m := range mutate {
		if err := m(c); err != nil {
			t.Fatal(err)
		}
		lv := c.ComputeLevels()

		ref := fresh()
		for _, m := range mutate[:i+1] {
			if err := m(ref); err != nil {
				t.Fatal(err)
			}
		}
		cold := ref.ComputeLevels()
		for a := 0; a < c.Nodes(); a++ {
			id := NodeID(a)
			if lv.Level(id) != cold.Level(id) || lv.OwnLevel(id) != cold.OwnLevel(id) {
				t.Fatalf("mutation %d: node %s repaired %d/%d, cold %d/%d", i, c.Format(id),
					lv.Level(id), lv.OwnLevel(id), cold.Level(id), cold.OwnLevel(id))
			}
		}
	}

	repairs := counter(t, reg, MetricLevelsCacheRepairs)
	misses := counter(t, reg, MetricLevelsCacheMisses)
	if repairs != int64(len(mutate)) {
		t.Fatalf("repairs counter = %d, want %d", repairs, len(mutate))
	}
	if misses != int64(len(mutate))+1 {
		t.Fatalf("misses counter = %d, want %d (repairs still count as misses)", misses, len(mutate)+1)
	}
	if tr := reg.LastGS(); tr == nil || tr.Kind != "repair" {
		t.Fatalf("last GS trace = %+v, want Kind \"repair\"", tr)
	}
}

func TestCubeCacheRepair(t *testing.T) {
	checkCacheRepair(t, func() *Cube { return MustNew(6) },
		func(c *Cube) error { return c.FailNamed("000001") },
		func(c *Cube) error { return c.FailNamed("000011") },
		func(c *Cube) error { return c.FailLink(c.MustParse("000000"), c.MustParse("000100")) },
		func(c *Cube) error { return c.RecoverNode(c.MustParse("000001")) },
	)
}

// TestGeneralizedCacheRepair is the mixed-radix case of
// TestCubeCacheRepair.
func TestGeneralizedCacheRepair(t *testing.T) {
	checkCacheRepair(t, func() *Cube { return MustNewGeneralized(2, 3, 2) },
		func(c *Cube) error { return c.FailNamed("010") },
	)
}
