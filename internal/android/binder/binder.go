// Package binder models the slice of Android's Binder IPC machinery that
// resource management depends on: kernel-side tokens (IBinder objects) with
// one-to-one mappings to app-side resource descriptors, death notification,
// and a latency cost per IPC round trip.
//
// The paper's lease proxies key their lease tables by these kernel objects
// (§4.2): "the resource descriptor is usually a unique client IPC token, an
// IBinder object", and revocation works by manipulating the kernel object
// without touching the descriptor.
package binder

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/power"
)

// IPCLatency is the simulated cost of one Binder round trip. The paper
// measures a plain resource-acquire IPC at about 2 ms on a Pixel XL
// (§7.2); we use that as the canonical value.
const IPCLatency = 2 * time.Millisecond

// DeathRecipient is told when the token it is linked to dies, the shape of
// Android's IBinder.DeathRecipient.
type DeathRecipient interface{ BinderDied() }

// Token is a kernel object: the server-side identity of one granted
// resource instance. A token may live inside its owner's own record
// (Registry.Init), so that a kernel object is one allocation.
type Token struct {
	id        uint64
	owner     power.UID
	service   string
	dead      bool
	recipient DeathRecipient
}

// ID returns the token's unique id within its registry.
func (t *Token) ID() uint64 { return t.id }

// Owner returns the uid the token belongs to.
func (t *Token) Owner() power.UID { return t.owner }

// Dead reports whether the token has been destroyed.
func (t *Token) Dead() bool { return t.dead }

func (t *Token) String() string {
	return fmt.Sprintf("%s/token-%d(uid %d)", t.service, t.id, t.owner)
}

// LinkToDeath registers r to be told when the token dies, mirroring
// IBinder.linkToDeath. A token has one recipient: a later link replaces an
// earlier one. Registration on a dead token fires immediately.
func (t *Token) LinkToDeath(r DeathRecipient) {
	if t.dead {
		r.BinderDied()
		return
	}
	t.recipient = r
}

// Registry issues tokens and tracks liveness per owner so that process death
// can reap every token the process held.
type Registry struct {
	nextID  uint64
	byOwner map[power.UID][]*Token

	// IPCCount tallies simulated IPC round trips, for overhead accounting.
	IPCCount int
}

// NewRegistry returns an empty token registry.
func NewRegistry() *Registry {
	return &Registry{byOwner: make(map[power.UID][]*Token)}
}

// Reset drops every token and restarts the id sequence, returning the
// registry to its NewRegistry state while keeping the owner map's buckets.
// Death recipients are not notified: a reset models the whole world being
// torn down, not individual processes dying.
func (r *Registry) Reset() {
	clear(r.byOwner)
	r.nextID = 0
	r.IPCCount = 0
}

// Init mints a live token owned by uid inside service into t, memory the
// caller owns and that no live token occupies.
func (r *Registry) Init(t *Token, owner power.UID, service string) {
	r.nextID++
	*t = Token{id: r.nextID, owner: owner, service: service}
	r.byOwner[owner] = append(r.byOwner[owner], t)
}

// Kill destroys a single token, notifying its death recipient once.
func (r *Registry) Kill(t *Token) {
	if t.dead {
		return
	}
	t.dead = true
	if t.recipient != nil {
		t.recipient.BinderDied()
	}
	tokens := r.byOwner[t.owner]
	if i := slices.Index(tokens, t); i >= 0 {
		r.byOwner[t.owner] = slices.Delete(tokens, i, i+1)
	}
}

// KillOwner destroys every live token owned by uid, as happens when the
// owning process dies ("system services from which the holder have requested
// resources will clean up the kernel objects", paper §4.3).
func (r *Registry) KillOwner(owner power.UID) {
	tokens := append([]*Token(nil), r.byOwner[owner]...)
	for _, t := range tokens {
		r.Kill(t)
	}
	delete(r.byOwner, owner)
}

// LiveCount reports how many live tokens uid holds.
func (r *Registry) LiveCount(owner power.UID) int { return len(r.byOwner[owner]) }

// IPC simulates one Binder round trip: it advances nothing by itself (the
// simulation is event-driven) but records the call and returns the latency
// the caller should account for in any end-to-end timing.
func (r *Registry) IPC() time.Duration {
	r.IPCCount++
	return IPCLatency
}
