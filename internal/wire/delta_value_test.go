package wire

import "slices"

// LinkStateDelta is a link-state delta by value (see NewLinkStateDelta):
// Entries are the Form-encoded entries at the member indices Changed,
// ascending.
type LinkStateDelta struct {
	ViewVersion uint32
	Seq         uint32
	Form        MsgType
	Members     int
	Changed     []int
	Entries     []byte
}

// AppendLinkStateDelta encodes d with its header.
func AppendLinkStateDelta(b []byte, src NodeID, d LinkStateDelta) []byte {
	at := len(b)
	b = append(b, NewLinkStateDelta(src, d.ViewVersion, d.Seq, d.Form, d.Members, len(d.Changed))...)
	size := entryLen(d.Form)
	for k, i := range d.Changed {
		PutDeltaEntry(b[at:], i, k, d.Entries[k*size:][:size])
	}
	return b
}

// ParseLinkStateDelta decodes a delta body into a message of its own.
func ParseLinkStateDelta(body []byte) (LinkStateDelta, error) {
	d, err := LinkStateDeltaBody(body)
	if err != nil {
		return LinkStateDelta{}, err
	}
	ld := LinkStateDelta{ViewVersion: d.ViewVersion, Seq: d.Seq, Form: d.Form, Members: d.Members,
		Changed: make([]int, 0, d.Changed), Entries: slices.Clone(d.entries)}
	for k, i := 0, -1; k < d.Changed; k++ {
		i = d.Member(k, i)
		ld.Changed = append(ld.Changed, i)
	}
	return ld, nil
}
