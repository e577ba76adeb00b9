#ifndef GEM_RF_ENVIRONMENT_H_
#define GEM_RF_ENVIRONMENT_H_

#include <string>
#include <vector>

#include "rf/types.h"

namespace gem::rf {

/// A wall segment with a band-dependent attenuation. Exterior walls of
/// a premises (brick, ~8-10 dB) are what make inside/outside signal
/// characteristics differ; interior partitions (drywall, ~3 dB) create
/// the multimodal in-premises RSS structure the paper's histogram
/// detector is designed for.
struct Wall {
  Point a;
  Point b;
  int floor = 0;
  double attenuation_db = 3.0;
  /// Extra attenuation applied on top for 5 GHz signals.
  double extra_5ghz_db = 2.0;
};

/// A WiFi access point (transceiver). One MAC per transceiver; an AP
/// with dual-band radios appears as two entries sharing a position.
struct AccessPoint {
  std::string mac;
  Point position;
  int floor = 0;
  Band band = Band::k2_4GHz;
  /// Mean RSS measured at the 1 m reference distance.
  double ref_rss_1m_dbm = -40.0;
};

/// The simulated world: a rectangular geofenced premises (possibly
/// multiple floors), wall segments, and ambient APs both inside and
/// around the premises.
class Environment {
 public:
  Environment() = default;

  /// Defines the geofence as the axis-aligned rectangle
  /// [0, width] x [0, height] spanning `floors` floors.
  void SetFence(double width_m, double height_m, int floors = 1);

  void AddWall(Wall wall) { walls_.push_back(wall); }
  void AddAccessPoint(AccessPoint ap) { aps_.push_back(std::move(ap)); }

  double fence_width() const { return width_; }
  double fence_height() const { return height_; }
  int floors() const { return floors_; }
  const std::vector<Wall>& walls() const { return walls_; }
  const std::vector<AccessPoint>& access_points() const { return aps_; }

  /// True when p (on any floor) lies within the geofenced rectangle.
  bool InsideFence(Point p) const;

  /// Floor-aware membership: the fence spans floors [0, floors). A
  /// point in the fenced rectangle but on the floor above (floors) or
  /// below (-1) is the confusable multi-floor OUTSIDE case — same
  /// footprint, one slab away — that GRAFICS identifies as the
  /// dominant multi-building failure mode.
  bool InsideFence(Point p, int floor) const {
    return floor >= 0 && floor < floors_ && InsideFence(p);
  }

  /// Sum of wall attenuations (dB) along the straight segment from
  /// `from` to `to` on floor `floor`, for the given band.
  double WallAttenuationDb(Point from, Point to, int floor, Band band) const;

  /// Number of wall segments the straight path crosses on this floor.
  int CountWallCrossings(Point from, Point to, int floor) const;

  /// Adds the four exterior walls of the fence rectangle on every
  /// floor with the given attenuation.
  void AddExteriorWalls(double attenuation_db, double extra_5ghz_db = 3.0);

 private:
  double width_ = 0.0;
  double height_ = 0.0;
  int floors_ = 1;
  std::vector<Wall> walls_;
  std::vector<AccessPoint> aps_;
};

/// True when segments (p1,p2) and (q1,q2) properly intersect.
bool SegmentsIntersect(Point p1, Point p2, Point q1, Point q2);

}  // namespace gem::rf

#endif  // GEM_RF_ENVIRONMENT_H_
