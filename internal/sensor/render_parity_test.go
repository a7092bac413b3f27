package sensor

import (
	"bytes"
	"math"
	"testing"

	"diverseav/internal/geom"
)

// curvyScene builds a scene over a curved route, once with the closure
// road-center path and once with the cursor-based route path.
func curvyScene(withRoute bool) *Scene {
	pts, end := geom.Straight(nil, geom.V2(0, 0), 0, 60, 2)
	pts, _, _ = geom.Arc(pts, end, 0, 50, math.Pi/2, 1.5)
	route := geom.MustPolyline(pts)
	const st0 = 22.0
	pos, yaw := route.PoseAt(st0)
	ego := geom.Pose{Pos: pos, Yaw: yaw + 0.03}
	sc := &Scene{
		EgoPose:         ego,
		RoadHalfWidth:   3.5,
		LaneMarkOffsets: []float64{-3.5, 0, 3.5},
		Obstacles: []RenderObstacle{
			{Pose: geom.Pose{Pos: route.At(st0 + 25), Yaw: yaw}, HalfL: 2.2, HalfW: 0.9, Braking: true},
		},
		StopBars:  []StopBar{{Dist: 40}},
		Step:      7,
		NoiseSeed: 0xfeed,
		NoiseStd:  1.2,
	}
	if withRoute {
		sc.Route = route
		sc.RouteStation = st0
		sc.RouteCenterOffset = 1.75
	} else {
		sc.RoadCenterAhead = func(dist float64) float64 {
			local := ego.ToLocal(route.At(st0 + dist))
			return local.Y + 1.75
		}
	}
	return sc
}

// TestRenderRoutePathMatchesClosure pins the LUT/cursor fast path to the
// reference closure path: both must rasterize byte-identical frames for
// every camera, so the optimization cannot silently change sensor data.
func TestRenderRoutePathMatchesClosure(t *testing.T) {
	for cam := CameraID(0); cam < NumCameras; cam++ {
		want := Render(cam, curvyScene(false), nil)
		got := Render(cam, curvyScene(true), nil)
		if !bytes.Equal(want, got) {
			diff := 0
			for i := range want {
				if want[i] != got[i] {
					diff++
				}
			}
			t.Errorf("camera %s: route-path frame differs from closure-path frame in %d/%d bytes", cam, diff, len(want))
		}
	}
}

// latticeScenes varies what the lattice loops must clip and align: ego
// yaw (straight and turned rays), obstacles cut by the left, right and
// bottom frame edges, braking and not, and stop bars near and far.
func latticeScenes() []*Scene {
	var scenes []*Scene
	for i, yaw := range []float64{0, 0.03, -0.31, 0.47} {
		sc := curvyScene(true)
		sc.EgoPose.Yaw += yaw
		sc.Step = 3 + i
		ego := sc.EgoPose
		at := func(fwd, left float64) geom.Vec2 {
			return ego.ToWorld(geom.V2(fwd, left))
		}
		sc.Obstacles = append(sc.Obstacles,
			RenderObstacle{Pose: geom.Pose{Pos: at(3.1, 0.4), Yaw: ego.Yaw}, HalfL: 2.2, HalfW: 0.9},
			RenderObstacle{Pose: geom.Pose{Pos: at(6.3, 4.7), Yaw: ego.Yaw + 0.5}, HalfL: 2.1, HalfW: 0.95, Braking: true},
			RenderObstacle{Pose: geom.Pose{Pos: at(9.7, -5.3), Yaw: ego.Yaw - 1.2}, HalfL: 2.4, HalfW: 1.0},
			RenderObstacle{Pose: geom.Pose{Pos: at(17, 8), Yaw: ego.Yaw + 0.785}, HalfL: 2.0, HalfW: 0.9, Braking: true},
		)
		sc.StopBars = append(sc.StopBars, StopBar{Dist: 4.5 + float64(i)}, StopBar{Dist: 61})
		scenes = append(scenes, sc)
	}
	return scenes
}

// TestRenderLatticeMatchesFull pins the lattice rasterizer: for every
// camera, scene and lattice, each lattice pixel holds the full render's
// bytes and every other pixel keeps dst's prior content.
func TestRenderLatticeMatchesFull(t *testing.T) {
	const sentinel = 0xa5
	lattices := []Lattice{Full, {2, 1}, {2, 2}, {3, 2}, {1, 3}, {5, 4}}
	// The scenes must clip boxes at the left, right and bottom edges,
	// or the lattice's edge alignment goes untested.
	var clipL, clipR, clipB bool
	for si, sc := range latticeScenes() {
		for cam := CameraID(0); cam < NumCameras; cam++ {
			for i := range sc.Obstacles {
				if p, ok := Project(cam, sc.EgoPose, &sc.Obstacles[i]); ok {
					clipL = clipL || p.UC-p.Width/2 < 0 && p.UC+p.Width/2 > 0
					clipR = clipR || p.UC+p.Width/2 > FrameW && p.UC-p.Width/2 < FrameW
					clipB = clipB || p.VBottom >= FrameH && p.UC > 0 && p.UC < FrameW
				}
			}
			full := Render(cam, sc, nil)
			for _, lat := range lattices {
				got := NewFrame()
				for i := range got {
					got[i] = sentinel
				}
				RenderLattice(cam, sc, got, lat)
				bad := 0
				for v := 0; v < FrameH; v++ {
					for u := 0; u < FrameW; u++ {
						on := u%lat.Col == 0 && v%lat.Row == 0
						for c := 0; c < 3; c++ {
							i := (v*FrameW+u)*3 + c
							if on && got[i] != full[i] || !on && got[i] != sentinel {
								bad++
							}
						}
					}
				}
				if bad > 0 {
					t.Errorf("scene %d camera %s lattice %+v: %d bytes differ from the full render or the sentinel", si, cam, lat, bad)
				}
			}
		}
	}
	if !clipL || !clipR || !clipB {
		t.Errorf("scenes clip an obstacle at left %v, right %v, bottom %v; want all three", clipL, clipR, clipB)
	}
}

// BenchmarkRenderFrame renders each camera whole and on the lattice the
// agent samples from it (agent.Lattice: (2, 1) center, (2, 2) sides).
func BenchmarkRenderFrame(b *testing.B) {
	sc := curvyScene(true)
	for _, c := range []struct {
		cam   CameraID
		agent Lattice
	}{{CamCenter, Lattice{2, 1}}, {CamLeft, Lattice{2, 2}}, {CamRight, Lattice{2, 2}}} {
		for _, l := range []struct {
			name string
			lat  Lattice
		}{{"full", Full}, {"agent", c.agent}} {
			b.Run(c.cam.String()+"/"+l.name, func(b *testing.B) {
				dst := NewFrame()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					RenderLattice(c.cam, sc, dst, l.lat)
				}
			})
		}
	}
}
