package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
)

// conn is one keep-alive HTTP/1.1 connection driven by a minimal
// client: requests go out as pre-encoded bytes and responses are parsed
// in place. A 25 µs GET /at would otherwise share its CPU and its
// garbage collector with a general-purpose client that allocates more
// per request than the server does, and the benchmark would measure
// the client.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	body []byte
}

func newConn(base string) *conn {
	return &conn{addr: strings.TrimPrefix(base, "http://")}
}

// encodeRequest appends one encoded request to b. body may be nil.
func encodeRequest(b []byte, method, target string, header []string, body []byte) []byte {
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: rembench\r\n"...)
	for _, h := range header {
		b = append(b, h...)
		b = append(b, "\r\n"...)
	}
	if body != nil {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// roundTrip sends one encoded request and reads the whole response; the
// body stays valid until the next call. A transport error closes the
// connection; the next call dials again.
func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.nc = nc
		if c.br == nil {
			c.br = bufio.NewReaderSize(nc, 64<<10)
		} else {
			c.br.Reset(nc)
		}
	}
	code, body, keep, err := c.exchange(req)
	if err != nil || !keep {
		c.close()
	}
	return code, body, err
}

func (c *conn) exchange(req []byte) (code int, body []byte, keep bool, err error) {
	if _, err = c.nc.Write(req); err != nil {
		return 0, nil, false, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	if code, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	keep = true
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, false, err
		}
		h := bytes.TrimRight(line, "\r\n")
		if len(h) == 0 {
			break
		}
		name, val, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, nil, false, fmt.Errorf("bad header line %q", line)
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil || length < 0 {
				return 0, nil, false, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keep = !bytes.EqualFold(val, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	default:
		return 0, nil, false, errors.New("response has neither Content-Length nor chunked encoding")
	}
	if err != nil {
		return 0, nil, false, err
	}
	return code, c.body, keep, nil
}

// readN appends the next n body bytes to c.body.
func (c *conn) readN(n int) error {
	start := len(c.body)
	c.body = slices.Grow(c.body, n)[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

// readChunked reads a chunked body (no trailers are expected).
func (c *conn) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size > 0 {
			if err := c.readN(int(size)); err != nil {
				return err
			}
		}
		crlf, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if string(crlf) != "\r\n" {
			return fmt.Errorf("bad chunk terminator %q", crlf)
		}
		if size == 0 {
			return nil
		}
	}
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}
