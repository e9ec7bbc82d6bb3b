package flight

import (
	"bytes"
	"testing"
)

// FuzzCaptureDecode feeds arbitrary bytes to the .p5fr decoder, which
// parses capture files from disk. Decode must never panic, and any
// input it accepts must reach an encoder fixpoint: Encode of the
// decoded capture decodes and re-encodes to identical bytes. (Struct
// equality with the input would be the wrong property: Encode drops
// empty or zero sections and the last of repeated sections wins.)
// The committed corpus under testdata/fuzz/FuzzCaptureDecode holds a
// capture with every section type, a truncated section header, a
// section length past the end, bad magic and a regs count of
// 0xFFFFFFFF.
func FuzzCaptureDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("decoded capture does not encode: %v", err)
		}
		c2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded capture does not decode: %v", err)
		}
		enc2, err := c2.Encode()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoder is not at a fixpoint:\n first %x\nsecond %x", enc, enc2)
		}
	})
}
