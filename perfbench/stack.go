package main

import (
	"sync"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/eventlayer"
	"invalidb/internal/storage"
)

// countingBus is the in-process event layer with every subscription's drop
// counter in reach: it remembers the subscriptions made through it — the
// cluster's spouts and the application server's included — so bus drops
// anywhere in the deployment count as failures.
type countingBus struct {
	*eventlayer.MemBus
	mu   sync.Mutex
	subs []eventlayer.Subscription
}

func newCountingBus() *countingBus {
	return &countingBus{MemBus: eventlayer.NewMemBus(eventlayer.MemBusOptions{})}
}

func (b *countingBus) Subscribe(patterns ...string) (eventlayer.Subscription, error) {
	sub, err := b.MemBus.Subscribe(patterns...)
	if err == nil {
		b.mu.Lock()
		b.subs = append(b.subs, sub)
		b.mu.Unlock()
	}
	return sub, err
}

// dropped sums the messages dropped on every subscription so far.
func (b *countingBus) dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n uint64
	for _, s := range b.subs {
		n += s.Dropped()
	}
	return n
}

// stack is the deployment invalidb.Open builds — bus, QP x WP cluster,
// database and application server, all on library defaults — assembled
// from the same parts so the bus is a countingBus.
type stack struct {
	bus *countingBus
	cl  *core.Cluster
	srv *appserver.Server
}

func openStack(tenant string, qp, wp int) (*stack, error) {
	s := &stack{bus: newCountingBus()}
	cl, err := core.NewCluster(s.bus, core.Options{QueryPartitions: qp, WritePartitions: wp})
	if err != nil {
		s.close()
		return nil, err
	}
	if err := cl.Start(); err != nil {
		s.close()
		return nil, err
	}
	s.cl = cl
	srv, err := appserver.New(storage.Open(storage.Options{}), s.bus, appserver.Options{Tenant: tenant})
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// close tears down server, cluster and bus, in that order.
func (s *stack) close() {
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.cl != nil {
		s.cl.Stop()
	}
	_ = s.bus.Close()
}
