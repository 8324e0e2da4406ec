// Graph file IO.
//
// Two formats:
//  * Text edge list — one "src dst" pair per line, '#' comments; the format
//    of SNAP / KONECT dumps, so users can load real datasets if they have
//    them.
//  * Binary — a small header (magic, version, counts) followed by the raw
//    edge array; ~20x faster to load, used to cache generated graphs.
#pragma once

#include <cstddef>
#include <string>

#include "graph/edge_list.hpp"

namespace bpart::graph {

/// Text parser sharding: a file is cut into
/// max(1, min(threads * kTextShardsPerThread, bytes / kTextMinShardBytes))
/// newline-aligned byte ranges, so small files stay on one thread.
inline constexpr unsigned kTextShardsPerThread = 4;
inline constexpr std::size_t kTextMinShardBytes = 64 * 1024;

/// Accounting of one load_text_edges call.
struct TextLoadReport {
  double seconds = 0;     ///< Wall-clock of the whole load.
  std::size_t bytes = 0;  ///< File size.
  std::size_t edges = 0;  ///< Edges parsed.
  unsigned threads = 1;   ///< Parser threads actually used.
  unsigned shards = 1;    ///< Newline-aligned byte-range shards.
};

/// Parse a text edge list: "src dst" per line with space, tab or comma
/// separators; '#'/'%' comments, blank lines, CRLF line endings, trailing
/// whitespace and extra columns (ignored — SNAP/KONECT dumps carry
/// weights/timestamps there) are accepted.
///
/// The file is read once and its shards are parsed on `threads` threads
/// (0 means bpart::thread_count()), then concatenated in file order, so the
/// result is identical at every thread count. Throws std::runtime_error on
/// unreadable files or malformed lines (citing the path, line number and
/// byte offset of the first bad line) and CheckError for an id >=
/// kInvalidVertex.
EdgeList load_text_edges(const std::string& path, unsigned threads = 0,
                         TextLoadReport* report = nullptr);

void save_text_edges(const EdgeList& edges, const std::string& path);

/// Binary round-trip. The header records endianness-sensitive magic so a
/// foreign-endian file fails loudly instead of loading garbage.
EdgeList load_binary_edges(const std::string& path);
void save_binary_edges(const EdgeList& edges, const std::string& path);

}  // namespace bpart::graph
