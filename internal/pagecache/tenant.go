package pagecache

import (
	"sort"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Tenant accounting: every resident page is charged to exactly one
// tenant account at insertion and credited back at eviction, so the
// per-tenant resident counters partition the global residency exactly —
// the identity the telemetry audit asserts. Budgets hang off the same
// accounts:
//
//   - a soft budget biases global reclaim: while any tenant is over its
//     soft budget, the victim loop rotates other tenants' pages back and
//     keeps eating the offenders' (bounded, so reclaim always finishes);
//   - a hard budget triggers tenant-targeted direct reclaim on the
//     allocating thread: the over-budget tenant's own oldest pages are
//     evicted until it fits, without touching anyone else's.
//
// Budget zero means unlimited. Tenant 0 is the default account for
// untagged insertions, so the audit identity holds with budgets unused.

// tenantAccount is one tenant's page ledger. resident/inserted/evicted
// are exact (every page charge and credit goes through them); overSoft
// is a cached flag that keeps Cache.nOverSoft equal to the number of
// accounts currently over their soft budget.
type tenantAccount struct {
	id       int
	slot     uint32 // the account's name in Cache.tenants, for page frames
	resident int64
	inserted int64
	evicted  int64
	soft     int64 // soft budget in pages; 0 = unlimited
	hard     int64 // hard budget in pages; 0 = unlimited
	overSoft bool
}

// overSoftNow reports whether the account exceeds its soft budget right
// now (live values, not the cached flag).
func (a *tenantAccount) overSoftNow() bool { return a.soft > 0 && a.resident > a.soft }

// TenantStats is one tenant's ledger snapshot (see Cache.TenantStats).
type TenantStats struct {
	ID         int
	Resident   int64
	Inserted   int64
	Evicted    int64
	SoftBudget int64
	HardBudget int64
}

// tenantAccountFor returns (creating if needed) the tenant's account.
func (c *Cache) tenantAccountFor(id int) *tenantAccount {
	a := c.tenantByID[id]
	if a == nil {
		a = &tenantAccount{id: id}
		a.slot = c.tenants.add(a)
		c.tenantByID[id] = a
	}
	return a
}

// SetTenantBudget configures a tenant's budgets in pages (0 = unlimited).
// The soft budget biases global reclaim toward the tenant's pages; the
// hard budget caps its residency via targeted direct reclaim on its own
// allocations. Budgets are normally set before traffic; changing them
// mid-flight is safe but the soft-pressure bias may lag one reclaim pass.
func (c *Cache) SetTenantBudget(id int, softPages, hardPages int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.tenantAccountFor(id)
	a.soft, a.hard = softPages, hardPages
	c.refreshOverSoft(a)
}

// TenantStats snapshots every tenant ledger, ordered by tenant ID.
func (c *Cache) TenantStats() []TenantStats {
	c.mu.Lock()
	out := make([]TenantStats, 0, len(c.tenantByID))
	for _, a := range c.tenantByID {
		out = append(out, TenantStats{
			ID:         a.id,
			Resident:   a.resident,
			Inserted:   a.inserted,
			Evicted:    a.evicted,
			SoftBudget: a.soft,
			HardBudget: a.hard,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// refreshOverSoft reconciles the account's cached over-soft flag with
// its live state, keeping nOverSoft equal to the number of set flags.
func (c *Cache) refreshOverSoft(a *tenantAccount) {
	if over := a.overSoftNow(); over != a.overSoft {
		a.overSoft = over
		if over {
			c.nOverSoft++
		} else {
			c.nOverSoft--
		}
	}
}

// chargeTenant accounts n freshly inserted (or requeued) pages.
func (c *Cache) chargeTenant(a *tenantAccount, n int64) {
	a.resident += n
	a.inserted += n
	c.refreshOverSoft(a)
}

// creditTenant accounts n evicted pages.
func (c *Cache) creditTenant(a *tenantAccount, n int64) {
	a.resident -= n
	a.evicted += n
	c.refreshOverSoft(a)
}

// tenantReclaimIfNeeded enforces a hard budget after an allocation: when
// the inserting tenant exceeds it, the tenant's own oldest pages (and
// only those) are direct-reclaimed down to the budget, charged to the
// allocating thread like any direct reclaim.
func (c *Cache) tenantReclaimIfNeeded(tl *simtime.Timeline, a *tenantAccount) {
	var target int64
	c.mu.Lock()
	if a.hard > 0 {
		target = a.resident - a.hard
	}
	c.mu.Unlock()
	if target <= 0 {
		return
	}
	c.tenantReclaims.Add(1)
	c.rec.Add(telemetry.CtrCacheTenantReclaims, 1)
	c.reclaim(tl, "cache.tenant_reclaim", target, false, func(victims []frameID, target int64) []frameID {
		return c.selectTenant(victims, a, target)
	})
}

// selectTenant is the selector of tenant-targeted reclaim: the tenant's
// own pages and nobody else's, oldest first — the inactive list, then the
// active one, each walked tail to head.
func (c *Cache) selectTenant(victims []frameID, a *tenantAccount, target int64) []frameID {
	ft := &c.frames
	for _, l := range [...]*pageList{&c.inactive, &c.active} {
		for id := l.tail; id != 0 && int64(len(victims)) < target; {
			p := ft.at(id)
			prev := p.prev
			if p.tacct == a.slot {
				l.remove(ft, id)
				if l == &c.inactive {
					c.nInactive--
				}
				p.setFlags(flagState, pageUnlinked)
				victims = append(victims, id)
			}
			id = prev
		}
	}
	return victims
}
