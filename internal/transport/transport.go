// Package transport defines the environment abstraction that keeps the
// overlay's protocol logic free of I/O ("sans-IO" style): a node interacts
// with the world only through an Env, which supplies time, timers,
// randomness, and datagram delivery.
//
// Two implementations are provided: a simulator adapter (sim.go) used by the
// emulation harness and all experiments, and a real UDP adapter (udp.go)
// used by cmd/overlayd for Internet deployments. Because nodes only see the
// Env interface, the exact code that runs on the wire is the code that runs
// in every experiment — the property the paper's own evaluation relies on.
package transport

import (
	"math/rand"
	"net/netip"
	"time"

	"allpairs/internal/wire"
)

// Timer is a cancellable scheduled callback, mirroring time.Timer.Stop
// semantics: Stop reports whether the callback was prevented from running.
type Timer interface {
	Stop() bool
}

// Handler consumes a received datagram. The payload includes the wire
// header; from is the transport-level sender identity (for UDP this is
// derived from the header's Src field after membership is established).
//
// The Env never writes a delivered payload again, so a handler may keep it
// (or a slice of it) as long as it likes without copying: the simulator
// delivers the slice the sender passed to Send, which no one writes after
// Send, and UDPEnv copies each datagram out of its receive buffer.
type Handler func(from wire.NodeID, payload []byte)

// Env is the execution environment of a single overlay node.
//
// Concurrency contract: the Env serializes all callbacks (packet handlers
// and timer functions) with each other and with Do. Every method except Do
// may be called only inside a handler, a timer function or a Do body; setup
// code and external goroutines reach the Env and the node state behind it
// through Do. Node code therefore needs no internal locking, and an Env needs
// no lock beyond the one that serializes callbacks. (UDPEnv's LocalAddr,
// SendErrors and Close are also safe anywhere.)
type Env interface {
	// LocalID returns this node's overlay ID, or wire.NilNode before one has
	// been assigned by the membership service.
	LocalID() wire.NodeID

	// SetLocalID installs the node ID assigned by the membership service.
	SetLocalID(id wire.NodeID)

	// LocalAddr returns the transport address this node advertises in its
	// membership Join. For UDP this is the socket's reachable address; the
	// simulator uses the convention 0.0.0.0:<endpoint-index>.
	LocalAddr() netip.AddrPort

	// SetPeer binds a node ID to its transport address, as learned from
	// membership views. Transports without addressing (the simulator)
	// interpret the address per their own convention.
	SetPeer(id wire.NodeID, addr netip.AddrPort)

	// Now returns the current time (virtual in simulation, wall-clock on
	// UDP).
	Now() time.Time

	// Send transmits a datagram to the node with the given ID. Sends to
	// unknown IDs are silently dropped, matching UDP semantics. The payload
	// is handed over: the simulator delivers it as it is, so the caller must
	// not write it after Send (see Handler).
	Send(to wire.NodeID, payload []byte)

	// After schedules fn to run after d, serialized with packet handlers.
	After(d time.Duration, fn func()) Timer

	// Rand returns the node's deterministic random source.
	Rand() *rand.Rand

	// Bind installs the node's packet handler. It must be called before any
	// traffic arrives.
	Bind(h Handler)

	// Do runs fn serialized with handlers and timers, for safe external
	// inspection and control of node state.
	Do(fn func())
}
