package criu

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/dapper-sim/dapper/internal/mem"
)

// Page-server request and response frames. See docs/transport.md for the
// full specification.
//
// Requests and responses are independent frame streams, so a client may
// pipeline many requests on one connection; responses carry the request ID
// back so they can arrive in any order relative to other connections and be
// matched after a client-side timeout abandoned the request. Requests
// travel bare; responses travel inside batch frames (pagebatch.go).
//
//	request  := reqID(u32 BE) pageAddr(u64 BE)
//	response := reqID(u32 BE) status(u8) body
//	  status 0x00 (OK):  body = PageSize bytes of page data
//	  status 0x01 (ERR): body = msgLen(u16 BE) msg[msgLen]
//
// An ERR frame reports a server-side FetchPage failure for that request
// only; the connection stays synchronized and usable. Anything else — a
// short frame, an unknown status byte — desynchronizes the stream and the
// reader must drop the connection.
const (
	pageReqLen    = 12
	pageStatusOK  = 0x00
	pageStatusErr = 0x01
	// maxPageErrMsg bounds error-frame messages so a corrupt length field
	// cannot trigger a huge allocation.
	maxPageErrMsg = 1 << 10
)

// pageRequest is one client->server frame.
type pageRequest struct {
	ID   uint32
	Addr uint64
}

// pageResponse is one server->client frame, decoded.
type pageResponse struct {
	ID   uint32
	Page []byte // nil when the frame is an error frame
	// Remote holds the server-reported error message for ERR frames.
	Remote string
}

func writePageRequest(w io.Writer, req pageRequest) error {
	var buf [pageReqLen]byte
	binary.BigEndian.PutUint32(buf[0:4], req.ID)
	binary.BigEndian.PutUint64(buf[4:12], req.Addr)
	_, err := w.Write(buf[:])
	return err
}

func readPageRequest(r io.Reader) (pageRequest, error) {
	var buf [pageReqLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return pageRequest{}, err
	}
	return pageRequest{
		ID:   binary.BigEndian.Uint32(buf[0:4]),
		Addr: binary.BigEndian.Uint64(buf[4:12]),
	}, nil
}

func readPageResponse(r io.Reader) (pageResponse, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return pageResponse{}, err
	}
	resp := pageResponse{ID: binary.BigEndian.Uint32(hdr[0:4])}
	switch hdr[4] {
	case pageStatusOK:
		resp.Page = make([]byte, mem.PageSize)
		if _, err := io.ReadFull(r, resp.Page); err != nil {
			return pageResponse{}, err
		}
	case pageStatusErr:
		var ln [2]byte
		if _, err := io.ReadFull(r, ln[:]); err != nil {
			return pageResponse{}, err
		}
		n := binary.BigEndian.Uint16(ln[:])
		if n > maxPageErrMsg {
			return pageResponse{}, fmt.Errorf("criu: page error frame of %d bytes exceeds limit", n)
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(r, msg); err != nil {
			return pageResponse{}, err
		}
		resp.Remote = string(msg)
		if resp.Remote == "" {
			resp.Remote = "unspecified server error"
		}
	default:
		return pageResponse{}, fmt.Errorf("criu: bad page response status 0x%02x", hdr[4])
	}
	return resp, nil
}

// RemoteFetchError is a server-reported page-fetch failure, relayed to the
// client in an error frame. The connection that carried it remains
// synchronized and usable.
type RemoteFetchError struct {
	Addr uint64
	Msg  string
}

func (e *RemoteFetchError) Error() string {
	return fmt.Sprintf("criu: page server failed to serve page 0x%x: %s", e.Addr, e.Msg)
}
