package overlay

import (
	"errors"

	"allpairs/internal/wire"
)

// Data-plane errors.
var (
	// ErrNotReady is returned before the node holds a membership view.
	ErrNotReady = errors.New("overlay: node has no membership view")
	// ErrUnknownDst is returned for destinations outside the current view.
	ErrUnknownDst = errors.New("overlay: destination not in view")
	// ErrNoRoute is returned when no usable route exists.
	ErrNoRoute = errors.New("overlay: no route to destination")
)

// OnData, if non-nil, receives application datagrams addressed to this node.
// origin is the overlay node that first sent the packet. The payload aliases
// the delivered datagram, which the Env never writes again
// (transport.Handler): it may be kept without a copy, but not written. Set
// before Start.
//
// Defined as a field on Node in overlay.go's struct; this file implements
// the forwarding logic (the original RON's application interface, which §5
// notes the paper's implementation omitted — restored here because a
// library's users need a data plane, not just route tables).

// SendData routes an application payload to dst through the overlay: it is
// handed to the current best one-hop intermediary (or sent directly when the
// direct path is best). Must be called from within env.Do.
func (n *Node) SendData(dst wire.NodeID, payload []byte) error {
	if n.view == nil || n.router == nil {
		return ErrNotReady
	}
	if _, ok := n.view.SlotOf(dst); !ok {
		return ErrUnknownDst
	}
	return n.forward(wire.Data{
		Origin:  n.env.LocalID(),
		Dst:     dst,
		TTL:     wire.DefaultDataTTL,
		Payload: payload,
	})
}

// forward transmits d toward its destination along BestHop's route, which
// falls back to the direct path when no better hop is known.
func (n *Node) forward(d wire.Data) error {
	if d.TTL == 0 {
		return ErrNoRoute
	}
	d.TTL--
	if _, ok := n.view.SlotOf(d.Dst); !ok {
		return ErrUnknownDst
	}
	next := d.Dst
	// Never bounce back to the origin or ourselves.
	if r, ok := n.BestHop(d.Dst); ok && r.Hop != n.env.LocalID() && r.Hop != d.Origin {
		next = r.Hop
	}
	n.env.Send(next, wire.AppendData(nil, n.env.LocalID(), d))
	return nil
}

// handleData delivers or forwards an incoming data packet.
func (n *Node) handleData(body []byte) {
	d, err := wire.ParseData(body)
	if err != nil || n.view == nil {
		return
	}
	if d.Dst == n.env.LocalID() {
		if n.OnData != nil {
			n.OnData(d.Origin, d.Payload)
		}
		return
	}
	// Transit: forward along our own best route to the destination. The
	// paper's one-hop routes terminate here (we are the chosen hop, and our
	// best hop to the destination is the direct link unless routing has
	// since learned better); the TTL bounds any transient loops.
	_ = n.forward(d)
}
