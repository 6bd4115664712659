package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"allpairs/internal/wire"
)

// UDPEnv implements Env over a real UDP socket for Internet deployments
// (cmd/overlayd, cmd/coordinator). A single read loop drains the socket; one
// mutex serializes packet handlers, timer callbacks, and Do, giving node code
// the same single-threaded discipline it enjoys under simulation.
//
// Locking: mu is held while any handler, timer function, or Do body runs, and
// the read loop learns an unknown sender's address under it too. Every other Env method
// runs only inside one of those callbacks, so none takes a lock of its own;
// setup code outside a callback calls them through Do. LocalAddr, SendErrors
// and Close are safe from any goroutine.
type UDPEnv struct {
	mu      sync.Mutex // serializes handler/timer/Do callbacks
	conn    *net.UDPConn
	local   netip.AddrPort
	id      wire.NodeID
	rng     *rand.Rand
	handler Handler
	peers   map[wire.NodeID]netip.AddrPort
	closed  atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup
	sendErr atomic.Uint64 // datagrams the socket refused to send
}

var _ Env = (*UDPEnv)(nil)

// NewUDPEnv opens a UDP socket on listen (e.g. ":4400" or "10.0.0.1:4400")
// and starts its read loop. advertise, if valid, is the externally reachable
// address announced to the membership service; otherwise the socket's local
// address is used.
func NewUDPEnv(listen string, advertise netip.AddrPort, seed int64) (*UDPEnv, error) {
	addr, err := net.ResolveUDPAddr("udp4", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", listen, err)
	}
	local := advertise
	if !local.IsValid() {
		if la, ok := conn.LocalAddr().(*net.UDPAddr); ok {
			local = la.AddrPort()
		}
	}
	e := &UDPEnv{
		conn:  conn,
		local: local,
		id:    wire.NilNode,
		rng:   rand.New(rand.NewSource(seed)),
		peers: make(map[wire.NodeID]netip.AddrPort),
		done:  make(chan struct{}),
	}
	e.wg.Add(1)
	go e.readLoop()
	return e, nil
}

func (e *UDPEnv) readLoop() {
	defer e.wg.Done()
	buf := make([]byte, wire.MaxDatagram)
	for {
		n, raddr, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		h, _, err := wire.ParseHeader(payload)
		if err != nil {
			continue
		}
		e.mu.Lock()
		if !e.closed.Load() {
			// A datagram's header is not authenticated, so it only names the
			// address of an ID that has none (a joiner the view does not list
			// yet): a view or a join (SetPeer) is the authority on any other,
			// and a forged header redirects no member's traffic.
			if _, known := e.peers[h.Src]; !known && h.Src != wire.NilNode {
				e.peers[h.Src] = raddr
			}
			if e.handler != nil {
				e.handler(h.Src, payload)
			}
		}
		e.mu.Unlock()
	}
}

// LocalID implements Env.
func (e *UDPEnv) LocalID() wire.NodeID { return e.id }

// SetLocalID implements Env.
func (e *UDPEnv) SetLocalID(id wire.NodeID) { e.id = id }

// LocalAddr implements Env.
func (e *UDPEnv) LocalAddr() netip.AddrPort { return e.local }

// SetPeer implements Env.
func (e *UDPEnv) SetPeer(id wire.NodeID, addr netip.AddrPort) {
	if id == wire.NilNode {
		return
	}
	e.peers[id] = addr
}

// Now implements Env.
func (e *UDPEnv) Now() time.Time { return time.Now() }

// Send implements Env. Unknown destinations are dropped silently, like any
// misaddressed datagram. A write the socket refuses (a payload over
// wire.MaxDatagram among them) is counted in SendErrors.
func (e *UDPEnv) Send(to wire.NodeID, payload []byte) {
	if e.closed.Load() {
		return
	}
	addr, ok := e.peers[to]
	if !ok {
		return
	}
	if _, err := e.conn.WriteToUDPAddrPort(payload, addr); err != nil {
		e.sendErr.Add(1)
	}
}

// SendErrors returns how many datagrams the socket refused to send.
//
//lint:testonly fault counter, the socket twin of SimEnv.SendErrors; TestUDPEnvDatagramCeiling reads it
func (e *UDPEnv) SendErrors() uint64 { return e.sendErr.Load() }

// udpTimer wraps time.Timer to satisfy the Timer interface.
type udpTimer struct{ t *time.Timer }

func (t udpTimer) Stop() bool { return t.t.Stop() }

// After implements Env. The callback is serialized with packet handlers and
// skipped if the environment has been closed.
func (e *UDPEnv) After(d time.Duration, fn func()) Timer {
	t := time.AfterFunc(d, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if !e.closed.Load() {
			fn()
		}
	})
	return udpTimer{t: t}
}

// Rand implements Env.
func (e *UDPEnv) Rand() *rand.Rand { return e.rng }

// Bind implements Env.
func (e *UDPEnv) Bind(h Handler) { e.handler = h }

// Do implements Env.
func (e *UDPEnv) Do(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed.Load() {
		fn()
	}
}

// Close shuts down the socket and prevents further callbacks. It is safe to
// call more than once.
func (e *UDPEnv) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	close(e.done)
	err := e.conn.Close()
	e.wg.Wait()
	return err
}
