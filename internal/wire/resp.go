package wire

import (
	"errors"
	"io"
	"strconv"
)

// RESP2 protocol reader and writer — the serving layer's client-facing
// codec. The reader parses pipelined command arrays (and inline
// commands) out of a reused internal buffer, returning argument views
// that stay valid until the next ReadCommand call; the writer appends
// replies into a reused buffer and flushes once per pipeline batch. On
// the steady state neither side allocates.

// ErrRESPProtocol reports malformed RESP input on a connection.
var ErrRESPProtocol = errors.New("wire: RESP protocol error")

// maxRESPBulk bounds a single bulk string (64 MiB): anything larger is
// treated as a protocol error rather than a buffer-growth request.
const maxRESPBulk = 64 << 20

// respBufSize is the initial buffer size of readers and writers.
const respBufSize = 4 << 10

// maxRESPInline bounds an inline command line, terminator excluded.
const maxRESPInline = 4 * respBufSize

// RESPReader decodes RESP2 commands from a stream.
type RESPReader struct {
	r     io.Reader
	buf   []byte
	start int // first unconsumed byte
	end   int // end of valid data
	args  [][]byte
}

// NewRESPReader returns a reader over r.
func NewRESPReader(r io.Reader) *RESPReader {
	return &RESPReader{r: r, buf: make([]byte, respBufSize)}
}

// Buffered reports the bytes already read but not yet consumed — after
// a ReadCommand, a nonzero count means more pipelined input is pending,
// so a server can keep dispatching before it flushes replies.
func (r *RESPReader) Buffered() int { return r.end - r.start }

// ReadCommand returns the next command's arguments. The returned views
// point into the reader's internal buffer and are valid only until the
// next ReadCommand call; callers retaining an argument must copy it.
func (r *RESPReader) ReadCommand() ([][]byte, error) {
	for {
		args, n, err := r.parse()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			r.start += n
			if len(args) == 0 {
				continue // empty inline line or zero-length array: skip
			}
			return args, nil
		}
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
}

// TryReadCommand decodes the next command only when it is already
// fully buffered, never blocking on the underlying reader: ok reports
// whether a command was returned. Servers use it to keep dispatching a
// pipeline's worth of commands before flushing replies, without
// stalling on a trailing partial command.
func (r *RESPReader) TryReadCommand() (args [][]byte, ok bool, err error) {
	for {
		args, n, err := r.parse()
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			return nil, false, nil
		}
		r.start += n
		if len(args) == 0 {
			continue
		}
		return args, true, nil
	}
}

// parse attempts to decode one command from the buffered window,
// returning the bytes it spans (0 when the window holds only a prefix).
func (r *RESPReader) parse() ([][]byte, int, error) {
	data := r.buf[r.start:r.end]
	if len(data) == 0 {
		return nil, 0, nil
	}
	r.args = r.args[:0]
	if data[0] != '*' {
		return r.parseInline(data)
	}
	count, i, err := parseRESPLine(data, 1)
	if err != nil || i == 0 {
		return nil, 0, err
	}
	if count < 0 || count > 1<<20 {
		return nil, 0, ErrRESPProtocol
	}
	for k := int64(0); k < count; k++ {
		if i >= len(data) {
			return nil, 0, nil
		}
		if data[i] != '$' {
			return nil, 0, ErrRESPProtocol
		}
		l, j, err := parseRESPLine(data, i+1)
		if err != nil || j == 0 {
			return nil, 0, err
		}
		if l < 0 || l > maxRESPBulk {
			return nil, 0, ErrRESPProtocol
		}
		if len(data)-j < int(l)+2 {
			return nil, 0, nil
		}
		if data[j+int(l)] != '\r' || data[j+int(l)+1] != '\n' {
			return nil, 0, ErrRESPProtocol
		}
		r.args = append(r.args, data[j:j+int(l)])
		i = j + int(l) + 2
	}
	return r.args, i, nil
}

// parseInline decodes a space-separated inline command line (the
// hand-telnet form redis-cli falls back to). A line longer than
// maxRESPInline is a protocol error whether or not its terminator has
// arrived yet, so the verdict does not depend on how the stream was
// split into reads, and the terminator search never scans past the
// bound.
func (r *RESPReader) parseInline(data []byte) ([][]byte, int, error) {
	lineEnd := -1
	for i := 0; i+1 < len(data) && i <= maxRESPInline; i++ {
		if data[i] == '\r' && data[i+1] == '\n' {
			lineEnd = i
			break
		}
	}
	if lineEnd < 0 {
		if len(data) > maxRESPInline+1 {
			return nil, 0, ErrRESPProtocol
		}
		return nil, 0, nil
	}
	line := data[:lineEnd]
	for i := 0; i < len(line); {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			r.args = append(r.args, line[start:i])
		}
	}
	// A bare CRLF is consumed without producing a command.
	return r.args, lineEnd + 2, nil
}

// parseRESPLine parses the decimal integer at data[i:] terminated by
// CRLF, returning the value and the index just past the terminator
// (0 when the line is incomplete).
func parseRESPLine(data []byte, i int) (int64, int, error) {
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	var v int64
	digits := 0
	for ; i < len(data); i++ {
		c := data[i]
		if c == '\r' {
			if i+1 >= len(data) {
				return 0, 0, nil
			}
			if data[i+1] != '\n' || digits == 0 {
				return 0, 0, ErrRESPProtocol
			}
			if neg {
				v = -v
			}
			return v, i + 2, nil
		}
		if c < '0' || c > '9' || digits > 18 {
			return 0, 0, ErrRESPProtocol
		}
		v = v*10 + int64(c-'0')
		digits++
	}
	return 0, 0, nil
}

// fill reads more input, compacting or growing the buffer as needed.
func (r *RESPReader) fill() error {
	if r.end == len(r.buf) {
		if r.start > 0 {
			copy(r.buf, r.buf[r.start:r.end])
			r.end -= r.start
			r.start = 0
		} else {
			grown := make([]byte, len(r.buf)*2)
			copy(grown, r.buf[:r.end])
			r.buf = grown
		}
	}
	n, err := r.r.Read(r.buf[r.end:])
	r.end += n
	if n == 0 && err != nil {
		return err
	}
	return nil
}

// RESPWriter encodes RESP2 replies into a reused buffer; Flush writes
// the whole batch in one syscall.
type RESPWriter struct {
	w   io.Writer
	buf []byte
}

// NewRESPWriter returns a writer over w.
func NewRESPWriter(w io.Writer) *RESPWriter {
	return &RESPWriter{w: w, buf: make([]byte, 0, respBufSize)}
}

// Buffered reports the bytes appended since the last Flush.
func (w *RESPWriter) Buffered() int { return len(w.buf) }

// SimpleString appends +s.
func (w *RESPWriter) SimpleString(s string) {
	w.buf = append(w.buf, '+')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '\r', '\n')
}

// Error appends -msg.
func (w *RESPWriter) Error(msg string) {
	w.buf = append(w.buf, '-')
	w.buf = append(w.buf, msg...)
	w.buf = append(w.buf, '\r', '\n')
}

// Int appends :n.
func (w *RESPWriter) Int(n int64) {
	w.buf = append(w.buf, ':')
	w.buf = strconv.AppendInt(w.buf, n, 10)
	w.buf = append(w.buf, '\r', '\n')
}

// Bulk appends v as a bulk string.
func (w *RESPWriter) Bulk(v []byte) {
	w.buf = append(w.buf, '$')
	w.buf = strconv.AppendInt(w.buf, int64(len(v)), 10)
	w.buf = append(w.buf, '\r', '\n')
	w.buf = append(w.buf, v...)
	w.buf = append(w.buf, '\r', '\n')
}

// BulkString appends s as a bulk string.
func (w *RESPWriter) BulkString(s string) {
	w.buf = append(w.buf, '$')
	w.buf = strconv.AppendInt(w.buf, int64(len(s)), 10)
	w.buf = append(w.buf, '\r', '\n')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '\r', '\n')
}

// Null appends the RESP2 null bulk ($-1).
func (w *RESPWriter) Null() {
	w.buf = append(w.buf, '$', '-', '1', '\r', '\n')
}

// Array appends an array header for n elements.
func (w *RESPWriter) Array(n int) {
	w.buf = append(w.buf, '*')
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	w.buf = append(w.buf, '\r', '\n')
}

// Flush writes the buffered replies and resets the buffer.
func (w *RESPWriter) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}
