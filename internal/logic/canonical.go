package logic

import "strings"

// CanonicalBench renders the circuit's identity text: its .bench
// rendering minus the "# name" comment header, so the display name
// never splits a content key and an inline submission of a builtin's
// rendering collides with the builtin itself, followed by one empty
// line. The service dedup key, the circuit interner and the
// fault-dictionary netlist hash all key on this rendering. A dry run
// of the renderer sizes the string first, so its buffer is allocated
// once and the text is written once, straight into it.
func CanonicalBench(c *Circuit) string {
	var n byteCount
	writeBenchBody(&n, c)
	var b strings.Builder
	b.Grow(int(n) + 1)
	writeBenchBody(&b, c)
	b.WriteByte('\n')
	return b.String()
}

// byteCount is a benchWriter that only counts what it is given.
type byteCount int

func (n *byteCount) WriteString(s string) (int, error) {
	*n += byteCount(len(s))
	return len(s), nil
}

func (n *byteCount) WriteByte(byte) error {
	*n++
	return nil
}
