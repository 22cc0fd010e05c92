package bitvec

// Pad and WriteBytes have no caller outside this package's tests; they
// stay here as wrappers over WriteUint so TestWriterPad and
// TestWriterBytesUnaligned keep exercising the same bit positions.

// Pad appends zero bits until the stream is byte aligned, returning
// the number of padding bits added.
func (w *Writer) Pad() int {
	n := -w.nbit & 7
	w.WriteUint(0, n)
	return n
}

// WriteBytes appends whole bytes (8 bits each).
func (w *Writer) WriteBytes(p []byte) {
	for _, b := range p {
		w.WriteUint(uint64(b), 8)
	}
}
