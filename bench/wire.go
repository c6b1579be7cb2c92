package main

// serve.wire_overhead_us: what the end-to-end runs leave out on purpose.
// They call Handler().ServeHTTP directly, so kernel TCP and net/http's
// connection handling are never on the timed path; this probe (traced run
// only) measures that part alone, as the difference between a request served
// over a loopback keep-alive connection and the same request served
// in-process. Closed loop, one connection per core.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"
)

var routeURL = &url.URL{Path: "/v1/workers/0/route"}

// closedLoop runs call from n goroutines for dur and returns the mean time
// per call in microseconds.
func closedLoop(n int, dur time.Duration, call func() error) (float64, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total time.Duration
	var calls int
	var firstErr error
	deadline := time.Now().Add(dur)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var el time.Duration
			c := 0
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if err := call(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				el += time.Since(t0)
				c++
			}
			mu.Lock()
			total += el
			calls += c
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	if calls == 0 {
		return 0, fmt.Errorf("no call completed")
	}
	return float64(total.Nanoseconds()) / float64(calls) / 1e3, nil
}

func probeWire(h http.Handler, conns int, dur time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // idle keep-alive connections only; nothing to lose
		<-served
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: conns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	target := "http://" + ln.Addr().String() + routeURL.Path
	wireUs, err := closedLoop(conns, dur, func() error {
		resp, err := client.Get(target)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", routeURL.Path, resp.StatusCode)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	g := &gate{h: h}
	inprocUs, err := closedLoop(conns, dur, func() error {
		var status int
		g.call("GET", routeURL, nil, func(s int, _ []byte) { status = s })
		if status != http.StatusOK {
			return fmt.Errorf("in-process GET %s: status %d", routeURL.Path, status)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return wireUs - inprocUs, nil
}
