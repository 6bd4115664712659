package transport

import (
	"math/rand"
	"net/netip"
	"time"

	"allpairs/internal/simnet"
	"allpairs/internal/wire"
)

// Registry maps overlay node IDs to simulator endpoint indexes for one
// simulation. The emulation harness registers each node (and the membership
// coordinator) before traffic flows; unknown destinations are dropped like
// misaddressed UDP datagrams.
type Registry struct {
	// byID is the dense ID → endpoint index every Send resolves through:
	// byID[id] is the endpoint plus one, zero for an unregistered ID. It is
	// sized to the largest registered ID + 1.
	byID []int32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Register binds an overlay ID to a simulator endpoint. wire.NilNode names no
// node and is never bound.
func (r *Registry) Register(id wire.NodeID, endpoint int) {
	if id == wire.NilNode {
		return
	}
	if int(id) >= len(r.byID) {
		r.byID = append(r.byID, make([]int32, int(id)+1-len(r.byID))...)
	}
	r.byID[id] = int32(endpoint) + 1
}

// Lookup resolves an overlay ID to its endpoint.
func (r *Registry) Lookup(id wire.NodeID) (endpoint int, ok bool) {
	if int(id) >= len(r.byID) {
		return 0, false
	}
	ep := r.byID[id]
	return int(ep) - 1, ep != 0
}

// SimEnv adapts one simnet endpoint to the Env interface. The simulation is
// single-threaded, so serialization is inherent and Do simply runs its
// argument.
type SimEnv struct {
	net      *simnet.Network
	reg      *Registry
	endpoint int
	id       wire.NodeID
	rng      *rand.Rand
	handler  Handler
	sendErr  uint64 // payloads refused for exceeding wire.MaxDatagram
}

var _ Env = (*SimEnv)(nil)

// NewSimEnv creates an Env for the node at the given simulator endpoint.
// The node starts with ID wire.NilNode until membership assigns one (use
// SetLocalID, which also registers the mapping).
func NewSimEnv(net *simnet.Network, reg *Registry, endpoint int, seed int64) *SimEnv {
	e := &SimEnv{
		net:      net,
		reg:      reg,
		endpoint: endpoint,
		id:       wire.NilNode,
		rng:      rand.New(rand.NewSource(seed)),
	}
	net.SetHandler(endpoint, func(from int, payload []byte) {
		if e.handler == nil {
			return
		}
		// The wire header's Src is authoritative for the overlay identity;
		// transport-level identity is only meaningful pre-membership.
		h, _, err := wire.ParseHeader(payload)
		if err != nil {
			return
		}
		e.handler(h.Src, payload)
	})
	return e
}

// LocalAddr implements Env using the simulator addressing convention: the
// endpoint index is carried in the port of an all-zero IPv4 address. This
// lets the membership protocol run unchanged over the simulator.
func (e *SimEnv) LocalAddr() netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{}), uint16(e.endpoint))
}

// SetPeer implements Env by registering the ID against the endpoint index
// encoded in the address port (see LocalAddr).
func (e *SimEnv) SetPeer(id wire.NodeID, addr netip.AddrPort) {
	e.reg.Register(id, int(addr.Port()))
}

// LocalID implements Env.
func (e *SimEnv) LocalID() wire.NodeID { return e.id }

// SetLocalID implements Env and registers the ID→endpoint mapping so other
// simulated nodes can address this one.
func (e *SimEnv) SetLocalID(id wire.NodeID) {
	e.id = id
	e.reg.Register(id, e.endpoint)
}

// Now implements Env.
func (e *SimEnv) Now() time.Time { return e.net.Now() }

// Send implements Env. Destinations not present in the registry are dropped.
// A payload over wire.MaxDatagram, which a UDP socket would refuse, never
// reaches the network (so it draws nothing from its random stream) and is
// counted in SendErrors.
func (e *SimEnv) Send(to wire.NodeID, payload []byte) {
	ep, ok := e.reg.Lookup(to)
	if !ok {
		return
	}
	if len(payload) > wire.MaxDatagram {
		e.sendErr++
		return
	}
	e.net.Send(e.endpoint, ep, payload)
}

// SendErrors returns how many payloads Send refused as oversize.
//
//lint:testonly fault counter; membership tests (TestPullReplyFitsADatagram, TestGossipDeltaFitsADatagram) assert no oversize send
func (e *SimEnv) SendErrors() uint64 { return e.sendErr }

// After implements Env.
func (e *SimEnv) After(d time.Duration, fn func()) Timer {
	return e.net.After(d, fn)
}

// Rand implements Env.
func (e *SimEnv) Rand() *rand.Rand { return e.rng }

// Bind implements Env.
func (e *SimEnv) Bind(h Handler) { e.handler = h }

// Do implements Env. The simulation loop is single-threaded, so fn runs
// directly; callers must invoke Do between simulation steps, never from
// another goroutine while the simulation is running.
func (e *SimEnv) Do(fn func()) { fn() }
