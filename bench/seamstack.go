package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"encshare"
	"encshare/internal/cluster"
	"encshare/internal/engine"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/minisql"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/rmi"
	"encshare/internal/secshare"
	"encshare/internal/server"
	"encshare/internal/store"
	"encshare/internal/xpath"
)

// seamStack is the traced run's system under test for the read
// workloads: the same layers the public API assembles, put together by
// hand so that a seam sits on both sides of every wire. The client is
// built the way encshare.newSession builds one (rmi.Dial → filter.Remote
// or cluster.Filter → filter.Client → engine.Advanced), each server the
// way server.Runtime.AttachStore does (ServerFilter → Mutable →
// RegisterServer on an rmi.Server behind the epoch gate).
type seamStack struct {
	tap *tap

	// server side, one per shard
	stores   []*store.Store
	dsns     []string
	filters  []*filter.ServerFilter
	handlers []*seam
	srvs     []*rmi.Server
	lns      []net.Listener
	served   sync.WaitGroup

	// client side
	rmis      []*rmi.Client
	exchanges []*seam
	top       *seam // what filter.Client talks to
	fc        *filter.Client
	eng       *engine.Advanced
	m         *mapping.Map
	r         *ring.Ring
	scheme    *secshare.Scheme

	loadS float64
}

// polyCacheEntries is ServeConfig's default decoded-polynomial cache.
const polyCacheEntries = server.DefaultCacheEntries

func buildSeams(in *inputs, dumps [][]byte, rec *recorder) (_ *seamStack, err error) {
	s := &seamStack{tap: &tap{rec: rec}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	f, err := gf.New(params.P, 1)
	if err != nil {
		return nil, err
	}
	if s.r, err = ring.New(f); err != nil {
		return nil, err
	}
	var mapFile bytes.Buffer
	if err := in.keys.SaveMap(&mapFile); err != nil {
		return nil, err
	}
	if s.m, err = mapping.Load(f, &mapFile); err != nil {
		return nil, err
	}
	s.scheme = secshare.New(s.r, prg.New(in.keys.Seed()))

	addrs := make([]string, len(dumps))
	for i, dump := range dumps {
		dsn := minisql.FreshDSN()
		st, err := store.OpenWith(dsn, store.Options{})
		if err != nil {
			return nil, err
		}
		s.stores, s.dsns = append(s.stores, st), append(s.dsns, dsn)
		t0 := time.Now()
		if err := st.Load(bytes.NewReader(dump)); err != nil {
			return nil, err
		}
		s.loadS += time.Since(t0).Seconds()
		sf := filter.NewServerFilterWith(st, s.r, filter.ServerOptions{Cache: filter.NewPolyCache(polyCacheEntries)})
		mut := filter.NewMutable(sf, 0, nil, nil)
		h := &seam{inner: mut, rec: rec, level: lvHandler, shard: i}
		srv := rmi.NewServer()
		filter.RegisterServer(srv, h)
		srv.SetGate(func(_, method string, epoch uint64) (func(), error) {
			if filter.GateExempt(method) {
				return nil, nil
			}
			return mut.ReadLock(epoch)
		})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.filters, s.handlers, s.srvs, s.lns = append(s.filters, sf), append(s.handlers, h), append(s.srvs, srv), append(s.lns, l)
		addrs[i] = l.Addr().String()
		tl := &tapListener{Listener: l, tap: s.tap, shard: i}
		s.served.Add(1)
		go func() {
			defer s.served.Done()
			srv.Serve(tl)
		}()
	}

	shards := make([]cluster.Shard, len(addrs))
	for i, addr := range addrs {
		cli, err := rmi.Dial(addr)
		if err != nil {
			return nil, err
		}
		s.rmis = append(s.rmis, cli)
		rem := filter.NewRemote(cli)
		x := &seam{inner: rem, rec: rec, level: lvExchange, shard: i}
		s.exchanges = append(s.exchanges, x)
		if len(addrs) == 1 {
			if info, err := rem.Epoch(); err == nil {
				cli.SetEpoch(info.Epoch)
			}
			s.top = x
			break
		}
		pr, err := rem.PreRange()
		if err != nil {
			return nil, err
		}
		shards[i] = cluster.Shard{Addr: addr, Range: cluster.Range{Lo: pr.Lo, Hi: pr.Hi}, Conn: x}
	}
	if s.top == nil {
		cf, err := cluster.NewWith(shards, cluster.Options{})
		if err != nil {
			return nil, err
		}
		if err := cf.RefreshEpochs(); err != nil {
			return nil, err
		}
		s.top = &seam{inner: cf, rec: rec, level: lvCluster, shard: -1}
	}
	s.fc = filter.NewClient(s.top, s.scheme)
	s.eng = engine.NewAdvanced(s.fc, s.m)
	return s, nil
}

func (s *seamStack) close() {
	for _, c := range s.rmis {
		c.Close()
	}
	for _, l := range s.lns {
		l.Close()
	}
	for _, srv := range s.srvs {
		srv.Shutdown()
	}
	s.served.Wait()
	for i, st := range s.stores {
		st.Close()
		minisql.Drop(s.dsns[i])
	}
}

// seamClient runs ops on a seamStack the way encshare.Session runs them.
type seamClient struct {
	s    *seamStack
	test engine.Test
}

func (c *seamClient) query(qs string) (answer, error) {
	q, err := xpath.Parse(qs)
	if err != nil {
		return answer{}, err
	}
	res, err := c.s.eng.Run(q, c.test)
	if err != nil {
		return answer{}, err
	}
	return answer{pres: res.Pres, stats: res.Stats}, nil
}

// aggregate mirrors Session.AggregateWith: the filtering query, then the
// verified fold with the last step's name as the known root.
func (c *seamClient) aggregate(qs string, kind encshare.AggKind) (answer, error) {
	q, err := xpath.Parse(qs)
	if err != nil {
		return answer{}, err
	}
	res, err := c.s.eng.Run(q, c.test)
	if err != nil {
		return answer{}, err
	}
	var opts filter.AggregateOptions
	if last := q.Steps[len(q.Steps)-1]; last.IsNameTest() {
		if v, err := c.s.m.Value(last.Name); err == nil {
			opts.CheckPoint = v
		}
	}
	before := c.s.fc.Counters.Snapshot()
	agg, err := c.s.fc.AggregateFold(res.Pres, kind, opts)
	if err != nil {
		return answer{}, err
	}
	if !agg.Folded {
		return answer{}, fmt.Errorf("aggregate %s was not folded server-side", qs)
	}
	d := c.s.fc.Counters.Snapshot().Sub(before)
	st := res.Stats
	st.Reconstructions += d.Reconstructions
	st.Folds += d.Folds
	return answer{pres: res.Pres, count: agg.Count, verified: agg.Verified, stats: st}, nil
}
