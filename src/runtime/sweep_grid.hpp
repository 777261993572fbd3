// Parameter-grid builder for sweeps.
//
// A SweepGrid is an ordered list of named axes (rate, theta_div, n_div,
// seed replica, ...); its job list is the cartesian product in row-major
// order — the first declared axis varies slowest, exactly like the nested
// for-loops the figure benches used to hand-roll:
//
//   SweepGrid grid;
//   grid.axis("theta", {16, 32, 64})
//       .axis("rate", SweepGrid::log_space(100.0, 2e6, 27));
//   // grid.size() == 81; point(0) = {theta=16, rate=100}
//
// GridPoint decodes one flat job index back into per-axis values/ordinals
// and renders a human-readable tag ("theta=16,rate=100") for progress and
// failure reports.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace aetr::runtime {

struct GridAxis {
  std::string name;
  std::vector<double> values;
};

class SweepGrid;

/// One decoded point of a grid. Values, not references: safe to copy into a
/// worker thread while the grid lives on the caller's stack.
class GridPoint {
 public:
  GridPoint() = default;

  [[nodiscard]] std::size_t index() const { return index_; }

  /// Value of the named axis at this point. Throws std::out_of_range for an
  /// unknown axis name — a misspelt axis is a programming error, and a
  /// silent 0.0 would corrupt a whole sweep.
  [[nodiscard]] double at(std::string_view axis) const;

  /// Position of this point along the named axis (0-based).
  [[nodiscard]] std::size_t ordinal(std::string_view axis) const;

  /// "theta=16,rate=100" — stable plain %g formatting (six significant
  /// digits, not a round trip: the tag names a CSV row, the value is in
  /// at()).
  [[nodiscard]] std::string tag() const;

  [[nodiscard]] const std::vector<GridAxis>* axes() const { return axes_; }

 private:
  friend class SweepGrid;
  const std::vector<GridAxis>* axes_{nullptr};
  std::vector<std::size_t> ordinals_;
  std::size_t index_{0};
};

class SweepGrid {
 public:
  /// Append an axis (varies faster than all axes added before it).
  /// An empty value list is rejected: it would silently zero the grid.
  SweepGrid& axis(std::string name, std::vector<double> values);

  /// `points` log-spaced values from `lo` to `hi` inclusive, the grid the
  /// figure benches use for event-rate axes: lo * (hi/lo)^(i/(points-1)).
  /// Degenerate spans are well-defined: points == 1 or hi == lo yield a
  /// constant axis. Throws std::invalid_argument for zero points, lo <= 0,
  /// or hi < lo.
  [[nodiscard]] static std::vector<double> log_space(double lo, double hi,
                                                     std::size_t points);

  /// `points` linearly spaced values from `lo` to `hi` inclusive. As with
  /// log_space, points == 1 or hi == lo yield a constant axis; zero points
  /// throw std::invalid_argument.
  [[nodiscard]] static std::vector<double> lin_space(double lo, double hi,
                                                     std::size_t points);

  /// Total number of grid points (product of axis sizes; 0 for no axes).
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::size_t axis_count() const { return axes_.size(); }
  [[nodiscard]] const GridAxis& axis_at(std::size_t i) const {
    return axes_.at(i);
  }

  /// Decode flat job index -> per-axis ordinals (row-major).
  [[nodiscard]] GridPoint point(std::size_t index) const;

 private:
  std::vector<GridAxis> axes_;
};

}  // namespace aetr::runtime
