package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"time"
)

// reply is one complete server response: zero or more T lines closed by a
// terminal line. The tuples themselves are folded into a count and an
// order-independent hash as they arrive.
type reply struct {
	term    byte   // '.', 'E', '+' or '~'
	n       int    // the terminal line's own count ('.', '~') or added bit ('+')
	tuples  int    // T lines received
	hash    uint64 // wrapping sum of lineHash over the T payloads
	version uint64 // v=<version> of '+' and '~'
	err     string // the message of an E line
}

// readReply consumes one response from the line protocol of
// internal/serve: "T <v1>\t<v2>..." per tuple, then ". <n> plan=hit|miss",
// "~ <n> v=<version>", "+ <a> v=<version>" or "E <message>".
func readReply(r *bufio.Reader) (reply, error) {
	var rp reply
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return rp, fmt.Errorf("reading reply: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			continue
		}
		rest := line[1:]
		if len(rest) > 0 && rest[0] == ' ' {
			rest = rest[1:]
		}
		switch line[0] {
		case 'T':
			rp.tuples++
			rp.hash += lineHash(rest)
			continue
		case 'E':
			rp.term, rp.err = 'E', string(rest)
			return rp, nil
		case '.', '~', '+':
			rp.term = line[0]
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				return rp, fmt.Errorf("terminal line %q has no count", line)
			}
			if rp.n, err = strconv.Atoi(string(fields[0])); err != nil {
				return rp, fmt.Errorf("terminal line %q: %w", line, err)
			}
			for _, f := range fields[1:] {
				if v, ok := bytes.CutPrefix(f, []byte("v=")); ok {
					if rp.version, err = strconv.ParseUint(string(v), 10, 64); err != nil {
						return rp, fmt.Errorf("terminal line %q: %w", line, err)
					}
				}
			}
			return rp, nil
		default:
			return rp, fmt.Errorf("unknown reply line %q", line)
		}
	}
}

// client is one closed-loop connection to mpqd -serve.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// replyTimeout bounds one request: a reply that takes longer counts as a
// failed operation instead of hanging the run.
const replyTimeout = 30 * time.Second

// do sends one request and reads its whole reply.
func (c *client) do(o op) (reply, error) {
	if err := c.send(o.line); err != nil {
		return reply{}, err
	}
	return readReply(c.r)
}

func (c *client) send(line string) error {
	if err := c.conn.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return err
	}
	_, err := c.conn.Write(append([]byte(line), '\n'))
	return err
}

func (c *client) close() {
	c.conn.Write([]byte("quit\n")) // best effort: the server also ends on EOF
	c.conn.Close()
}
