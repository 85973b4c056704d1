package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the peer-stream frame decoder.
// Whatever the input, ReadFrame must not panic, must never claim more
// bytes than it was given, and must either report an incomplete frame
// (n == 0), reject the input with an error, or accept a frame that
// BeginFrame/EndFrame rebuild to exactly the bytes it consumed. The
// seed corpus lives in testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, n, err := ReadFrame(data)
		if n < 0 || n > len(data) {
			t.Fatalf("ReadFrame consumed %d of %d bytes", n, len(data))
		}
		if err != nil || n == 0 {
			if n != 0 || body != nil {
				t.Fatalf("rejected or incomplete input returned n=%d body=%x (err %v)", n, body, err)
			}
			return
		}
		re := EndFrame(append(BeginFrame(nil, kind), body...), 0)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("frame rebuilds to %x, decoded from %x", re, data[:n])
		}
	})
}
