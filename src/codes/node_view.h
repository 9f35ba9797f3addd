// Strided views over node buffers.
//
// A code operates on n nodes, each holding `rows` elements of `len` bytes.
// A NodeView describes where those elements live: element t occupies
// [data + t*stride, data + t*stride + len).  A plain contiguous node buffer
// is {buf, block, block}; the Approximate Code framework uses non-trivial
// strides to address the "important" byte sub-range of every element and
// the per-stripe segments of global parity nodes without copying.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"

namespace approx::codes {

struct NodeView {
  std::uint8_t* data = nullptr;  // base of element 0
  std::size_t len = 0;           // bytes per element in this view
  std::size_t stride = 0;        // distance between consecutive element bases

  std::uint8_t* elem(int row) const noexcept {
    return data + static_cast<std::size_t>(row) * stride;
  }
};

// View over a contiguous node buffer holding `rows` elements of
// `block` bytes each.
inline NodeView full_view(std::span<std::uint8_t> node, std::size_t block) {
  return NodeView{node.data(), block, block};
}

// View over the byte sub-range [offset, offset+len) of every element of a
// contiguous node buffer.
inline NodeView range_view(std::span<std::uint8_t> node, std::size_t block,
                           std::size_t offset, std::size_t len) {
  return NodeView{node.data() + offset, len, block};
}

// The element length shared by a code's views: there must be `count` views,
// all of one length, or InvalidArgument is thrown (a shorter view would be
// read past its end).
inline std::size_t uniform_len(std::span<const NodeView> nodes, int count) {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(count),
                 "coding needs one view per node");
  const std::size_t len = nodes[0].len;
  for (const auto& v : nodes) {
    APPROX_REQUIRE(v.len == len, "all node views must agree on element length");
  }
  return len;
}

// An element coordinate: node index + row within the node.
struct ElemRef {
  int node = 0;
  int row = 0;
  friend bool operator==(const ElemRef&, const ElemRef&) = default;
};

}  // namespace approx::codes
