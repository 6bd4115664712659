package membership

import (
	"encoding/binary"
	"testing"

	"allpairs/internal/wire"
)

// chunkStream encodes a snapshot of members as its chunk bodies, each behind
// a 2-byte length, in the given chunk order (repeats allowed): the input
// FuzzSnapshotAssembly reads.
func chunkStream(stamp wire.ViewStamp, slots int, members []wire.Member, order ...int) []byte {
	count := wire.ViewChunkCount(len(members))
	var out []byte
	for _, i := range order {
		lo := i * wire.ViewChunkMembers
		body := wire.AppendViewChunk(nil, 1, wire.ViewChunk{
			Stamp: stamp, TotalSlots: uint16(slots), TotalMembers: uint16(len(members)),
			Index: uint16(i), Count: uint16(count),
			Members: members[lo:min(lo+wire.ViewChunkMembers, len(members))],
		})[wire.HeaderLen:]
		out = binary.BigEndian.AppendUint16(out, uint16(len(body)))
		out = append(out, body...)
	}
	return out
}

// FuzzSnapshotAssembly feeds the reassembler every chunk the parser accepts
// from a stream of length-prefixed bodies — in any order, with duplicates,
// and with pieces of other snapshots interleaved. It must never panic, and a
// view it returns must hold the completing chunk's TotalMembers members under
// that chunk's stamp and slot count.
func FuzzSnapshotAssembly(f *testing.F) {
	members := make([]wire.Member, 130)
	for i := range members {
		members[i] = wire.Member{ID: wire.NodeID(i), Slot: uint16(i + i/10)}
	}
	a := wire.ViewStamp{Epoch: 1, Version: 7}
	b := wire.ViewStamp{Epoch: 2, Version: 1}
	f.Add(chunkStream(a, 143, members, 2, 0, 0, 1))
	f.Add(append(append(chunkStream(a, 143, members, 0, 1), chunkStream(b, 3, members[:2], 0)...),
		chunkStream(a, 143, members, 2, 0, 1, 2)...))
	f.Add(chunkStream(b, 0, nil, 0, 0))
	f.Fuzz(func(t *testing.T, stream []byte) {
		var s snapshot
		for len(stream) >= 2 {
			n := min(int(binary.BigEndian.Uint16(stream)), len(stream)-2)
			body := stream[2 : 2+n]
			stream = stream[2+n:]
			vc, err := wire.ParseViewChunk(body)
			if err != nil {
				continue
			}
			v, ok := s.add(vc)
			if !ok {
				continue
			}
			stamp := wire.ViewStamp{Epoch: v.Epoch, Version: v.Version}
			if len(v.Members) != int(vc.TotalMembers) || stamp != vc.Stamp || v.Slots != vc.TotalSlots {
				t.Fatalf("assembled %d members at %v over %d slots from a chunk of %d members at %v over %d",
					len(v.Members), stamp, v.Slots, vc.TotalMembers, vc.Stamp, vc.TotalSlots)
			}
		}
	})
}
