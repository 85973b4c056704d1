package wire

import (
	"bytes"
	"io"
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

// FuzzRESPReader feeds arbitrary bytes to the client-facing RESP
// command decoder. Whatever the input, the reader must not panic.
// Streamed in small chunks through ReadCommand and decoded from one
// fully buffered window through TryReadCommand, it must accept the
// same commands and stop at the same protocol error (an incomplete
// tail is io.EOF to the first and "not yet" to the second). Every
// command it accepts, re-encoded as a RESP array of bulk strings, must
// parse back to the same arguments. The seed corpus lives in
// testdata/fuzz/FuzzRESPReader.
func FuzzRESPReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Small inputs arrive a few bytes per read; large ones in larger
		// reads, since every read re-parses the pending command.
		stream := NewRESPReader(&chunkReader{data: data, chunk: 1 + len(data)%13 + len(data)/64})
		var cmds [][][]byte
		var streamErr error
		for {
			args, err := stream.ReadCommand()
			if err != nil {
				streamErr = err
				break
			}
			if len(args) == 0 {
				t.Fatal("ReadCommand returned an empty command")
			}
			cmd := make([][]byte, len(args))
			for i, a := range args {
				cmd[i] = append([]byte{}, a...)
			}
			cmds = append(cmds, cmd)
		}
		if streamErr != io.EOF && streamErr != ErrRESPProtocol {
			t.Fatalf("ReadCommand failed with %v", streamErr)
		}

		buffered := &RESPReader{buf: append([]byte(nil), data...), end: len(data)}
		for i := 0; ; i++ {
			args, ok, err := buffered.TryReadCommand()
			if err != nil || !ok {
				want := streamErr
				if want == io.EOF {
					want = nil
				}
				if i != len(cmds) || err != want {
					t.Fatalf("TryReadCommand stopped after %d commands with %v; ReadCommand after %d with %v",
						i, err, len(cmds), streamErr)
				}
				break
			}
			if i >= len(cmds) || !argsEqual(args, cmds[i]) {
				t.Fatalf("TryReadCommand command %d (%d args) differs from ReadCommand's", i, len(args))
			}
		}

		for _, cmd := range cmds {
			var enc bytes.Buffer
			w := NewRESPWriter(&enc)
			w.Array(len(cmd))
			for _, a := range cmd {
				w.Bulk(a)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			back := NewRESPReader(&enc)
			args, err := back.ReadCommand()
			if err != nil || !argsEqual(args, cmd) {
				t.Fatalf("a %d-arg command re-encoded parses back as %d args (err %v)", len(cmd), len(args), err)
			}
			if _, err := back.ReadCommand(); err != io.EOF {
				t.Fatalf("a %d-arg command re-encoded leaves trailing input (err %v)", len(cmd), err)
			}
		}
	})
}

func argsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
