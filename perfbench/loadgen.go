package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"repro/internal/stats"
	"repro/internal/ycsb"
)

// keyPrefix and keyDigits give the YCSB key shape: "user" plus a
// zero-padded twelve-digit record id.
const (
	keyPrefix = "user"
	keyDigits = 12
)

// replyTimeout bounds how long past the window's end the generator
// waits for outstanding replies.
const replyTimeout = 20 * time.Second

// keyName formats record id i as a key.
func keyName(i uint64) string {
	s := strconv.FormatUint(i, 10)
	b := make([]byte, 0, len(keyPrefix)+keyDigits)
	b = append(b, keyPrefix...)
	for pad := keyDigits - len(s); pad > 0; pad-- {
		b = append(b, '0')
	}
	return string(append(b, s...))
}

// preloadValue is the value every record holds before the run.
func preloadValue(size int) []byte { return bytes.Repeat([]byte{'p'}, size) }

// appendValue appends the value the generator writes as the seq-th SET
// of record id: a printable header naming both, padded to size. Values
// are regenerated from (id, seq) to validate GET replies, so the
// generator keeps one sequence number per key rather than the bytes.
func appendValue(b []byte, id uint64, seq uint32, size int) []byte {
	start := len(b)
	b = append(b, 'v')
	b = strconv.AppendUint(b, id, 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(seq), 10)
	b = append(b, '.')
	for len(b)-start < size {
		b = append(b, 'x')
	}
	return b
}

// genConfig fixes one load generator: a closed loop over one
// connection with a fixed pipeline depth.
type genConfig struct {
	Keys      uint64
	ValueSize int
	Depth     int
	Workload  ycsb.Workload // the read/update mix and key distribution
	Seed      uint64
}

// genResult is what one measured window of the generator observed.
type genResult struct {
	Ops, Gets, Sets uint64
	Failed          uint64
	FirstFailure    string
	Wall            time.Duration
	ReadWait        time.Duration // time blocked in conn.Read
	GetLat, SetLat  stats.Histogram
	BatchRTT        stats.Histogram
	UserBytes       uint64 // key+value bytes of the SETs sent
	// The window in one-second slices, each summarized with exact
	// percentiles (the histograms' buckets are ~3% wide, so a bucketed
	// median would read the same on most runs).
	Slices []slice

	gets, sets []time.Duration // the current slice's latencies
}

// slice summarizes one second of a measured window.
type slice struct {
	OpsPerS        float64
	CPUPerOp       time.Duration // process CPU time per completed op
	GetP50, SetP50 time.Duration
	GetP99, SetP99 time.Duration
}

// sliceLen is the length of one measured slice.
const sliceLen = time.Second

// cmd is one pipelined command of the current batch.
type cmd struct {
	id   uint64
	set  bool
	seq  uint32 // SET: the sequence number written
	prev uint32 // GET: committed sequence before this batch
	pos  int    // SET: index of the previous SET to the key in this batch, -1 if none
}

// loadgen is a pipelined RESP client: it writes a batch of Depth
// commands, then parses exactly Depth replies before sending the next
// batch, like a pipelining Redis client. Every reply is validated
// against what this client last wrote (or the preload value): with a
// single client at R+W > RF a GET must return the latest completed
// SET, or one sent in the same batch.
type loadgen struct {
	cfg     genConfig
	conn    net.Conn
	src     *stats.Source
	zipf    *stats.ScrambledZipfian
	keys    [][]byte // RESP bulk-encoded keys
	keyLens []int    // raw key lengths
	seq     []uint32 // last committed SET sequence per key; 0 = preload
	preload []byte

	out  []byte
	in   []byte
	r, w int // read window of in
	val  []byte
	cmds []cmd
	last map[uint64]int // key -> index of its latest SET in the batch

	readWait time.Duration

	// onBatch, when set, brackets every batch (the traced run opens and
	// closes its root span here).
	onBatch func(start bool)
}

func newLoadgen(cfg genConfig, conn net.Conn) *loadgen {
	g := &loadgen{
		cfg:     cfg,
		conn:    conn,
		src:     stats.NewSource(cfg.Seed).Stream("perfbench.loadgen"),
		keys:    make([][]byte, cfg.Keys),
		keyLens: make([]int, cfg.Keys),
		seq:     make([]uint32, cfg.Keys),
		preload: preloadValue(cfg.ValueSize),
		in:      make([]byte, 256<<10),
		last:    make(map[uint64]int, cfg.Depth),
	}
	if cfg.Workload.Dist == ycsb.DistZipfian {
		g.zipf = stats.NewScrambledZipfian(cfg.Keys, cfg.Workload.ZipfTheta)
	}
	for i := range g.keys {
		k := keyName(uint64(i))
		g.keys[i] = []byte("$" + strconv.Itoa(len(k)) + "\r\n" + k + "\r\n")
		g.keyLens[i] = len(k)
	}
	return g
}

func (g *loadgen) nextKey() uint64 {
	if g.zipf != nil {
		return g.zipf.Next(g.src)
	}
	return g.src.Uint64N(g.cfg.Keys)
}

// run drives batches until d has elapsed and reports the window. A
// transport error or a failed check ends the run early.
func (g *loadgen) run(d time.Duration) (genResult, error) {
	var res genResult
	g.readWait = 0
	start := time.Now()
	deadline := start.Add(d)
	// A reply that never comes fails the run instead of hanging it.
	if err := g.conn.SetDeadline(deadline.Add(replyTimeout)); err != nil {
		return res, err
	}
	sliceStart, sliceOps, sliceCPU := start, uint64(0), cpuTime()
	for now := start; now.Before(deadline); now = time.Now() {
		if el := now.Sub(sliceStart); el >= sliceLen {
			cpu := cpuTime()
			res.Slices = append(res.Slices, slice{
				OpsPerS:  float64(res.Ops-sliceOps) / el.Seconds(),
				CPUPerOp: (cpu - sliceCPU) / time.Duration(max(res.Ops-sliceOps, 1)),
				GetP50:   quantile(res.gets, 0.50),
				SetP50:   quantile(res.sets, 0.50),
				GetP99:   quantile(res.gets, 0.99),
				SetP99:   quantile(res.sets, 0.99),
			})
			res.gets, res.sets = res.gets[:0], res.sets[:0]
			sliceStart, sliceOps, sliceCPU = now, res.Ops, cpu
		}
		if err := g.batch(&res); err != nil {
			res.Wall = time.Since(start)
			res.ReadWait = g.readWait
			return res, err
		}
		if res.Failed > 0 {
			break
		}
	}
	res.Wall = time.Since(start)
	res.ReadWait = g.readWait
	return res, nil
}

// batch sends one pipeline batch and validates its replies.
func (g *loadgen) batch(res *genResult) error {
	g.out = g.out[:0]
	g.cmds = g.cmds[:0]
	clear(g.last)
	for i := 0; i < g.cfg.Depth; i++ {
		id := g.nextKey()
		c := cmd{id: id, pos: -1}
		if g.cfg.Workload.NextOp(g.src) == ycsb.OpRead {
			c.prev = g.seq[id]
			g.out = append(g.out, "*2\r\n$3\r\nGET\r\n"...)
			g.out = append(g.out, g.keys[id]...)
		} else {
			c.set = true
			if p, ok := g.last[id]; ok {
				c.pos = p
			}
			c.seq = g.nextSeq(id, c.pos)
			g.val = appendValue(g.val[:0], id, c.seq, g.cfg.ValueSize)
			g.out = append(g.out, "*3\r\n$3\r\nSET\r\n"...)
			g.out = append(g.out, g.keys[id]...)
			g.out = append(g.out, '$')
			g.out = strconv.AppendInt(g.out, int64(len(g.val)), 10)
			g.out = append(g.out, "\r\n"...)
			g.out = append(g.out, g.val...)
			g.out = append(g.out, "\r\n"...)
			g.last[id] = i
			res.UserBytes += uint64(g.keyLens[id] + len(g.val))
		}
		g.cmds = append(g.cmds, c)
	}
	if g.onBatch != nil {
		g.onBatch(true)
	}
	sent := time.Now()
	if _, err := g.conn.Write(g.out); err != nil {
		return err
	}
	for i := range g.cmds {
		c := &g.cmds[i]
		kind, body, err := g.reply()
		if err != nil {
			return err
		}
		lat := time.Since(sent)
		res.Ops++
		if c.set {
			res.Sets++
			res.SetLat.Record(lat)
			res.sets = append(res.sets, lat)
			if kind != '+' || string(body) != "OK" {
				g.fail(res, fmt.Sprintf("SET %s: reply %c%q", keyName(c.id), kind, body))
			}
			continue
		}
		res.Gets++
		res.GetLat.Record(lat)
		res.gets = append(res.gets, lat)
		if kind != '$' || !g.validGet(c, body) {
			g.fail(res, fmt.Sprintf("GET %s: reply %c%q", keyName(c.id), kind, truncate(body)))
		}
	}
	res.BatchRTT.Record(time.Since(sent))
	if g.onBatch != nil {
		g.onBatch(false)
	}
	// Every SET of the batch has completed: the last one per key is now
	// what a later GET must see.
	for id, p := range g.last {
		g.seq[id] = g.cmds[p].seq
	}
	return nil
}

// nextSeq numbers a SET after the key's latest write, committed or
// earlier in this batch.
func (g *loadgen) nextSeq(id uint64, pos int) uint32 {
	if pos >= 0 {
		return g.cmds[pos].seq + 1
	}
	return g.seq[id] + 1
}

// validGet accepts the committed value from before the batch or the
// value of any SET to the key in this batch: pipelined commands are in
// flight together, so a GET may observe a SET sent after it.
func (g *loadgen) validGet(c *cmd, body []byte) bool {
	if g.matches(c.id, c.prev, body) {
		return true
	}
	p, ok := g.last[c.id]
	for ok && p >= 0 {
		w := &g.cmds[p]
		if g.matches(c.id, w.seq, body) {
			return true
		}
		p = w.pos
	}
	return false
}

func (g *loadgen) matches(id uint64, seq uint32, body []byte) bool {
	if seq == 0 {
		return bytes.Equal(body, g.preload)
	}
	g.val = appendValue(g.val[:0], id, seq, g.cfg.ValueSize)
	return bytes.Equal(body, g.val)
}

func (g *loadgen) fail(res *genResult, msg string) {
	res.Failed++
	if res.FirstFailure == "" {
		res.FirstFailure = msg
	}
}

func truncate(b []byte) []byte {
	if len(b) > 48 {
		return b[:48]
	}
	return b
}

// reply parses one RESP reply: simple string, error, integer or bulk
// string (a null bulk reads as kind '_').
func (g *loadgen) reply() (kind byte, body []byte, err error) {
	line, err := g.line()
	if err != nil {
		return 0, nil, err
	}
	if len(line) == 0 {
		return 0, nil, errors.New("perfbench: empty reply line")
	}
	kind = line[0]
	switch kind {
	case '+', '-', ':':
		return kind, line[1:], nil
	case '$':
		n, perr := strconv.Atoi(string(line[1:]))
		if perr != nil {
			return 0, nil, fmt.Errorf("perfbench: bad bulk length %q", line)
		}
		if n < 0 {
			return '_', nil, nil
		}
		if err := g.need(n + 2); err != nil {
			return 0, nil, err
		}
		body = g.in[g.r : g.r+n]
		g.r += n + 2
		return '$', body, nil
	}
	return 0, nil, fmt.Errorf("perfbench: unexpected reply %q", line)
}

// line returns the next CRLF-terminated line without its terminator.
func (g *loadgen) line() ([]byte, error) {
	for {
		if i := bytes.Index(g.in[g.r:g.w], []byte("\r\n")); i >= 0 {
			l := g.in[g.r : g.r+i]
			g.r += i + 2
			return l, nil
		}
		if err := g.fill(); err != nil {
			return nil, err
		}
	}
}

// need ensures n unread bytes are buffered.
func (g *loadgen) need(n int) error {
	for g.w-g.r < n {
		if err := g.fill(); err != nil {
			return err
		}
	}
	return nil
}

// fill compacts the buffer and reads more, accounting the time spent
// blocked on the socket.
func (g *loadgen) fill() error {
	if g.r > 0 {
		g.w = copy(g.in, g.in[g.r:g.w])
		g.r = 0
	}
	if g.w == len(g.in) {
		g.in = append(g.in, make([]byte, len(g.in))...)
	}
	t0 := time.Now()
	n, err := g.conn.Read(g.in[g.w:])
	g.readWait += time.Since(t0)
	g.w += n
	if n == 0 && err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}
