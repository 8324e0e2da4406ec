#include "pipeline/artifact_store.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/logging.hpp"

namespace bpart::pipeline {

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t seed = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_str(std::string_view s,
                        std::uint64_t seed = kFnvOffset) {
  return fnv1a(s.data(), s.size(), seed);
}

// (graph_revision below also uses fnv1a; keep the helpers above it.)

constexpr std::uint64_t kArtifactMagic = 0x314341'5452415042ULL;  // "BPARTAC1"
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint32_t kKindGraph = 1;
constexpr std::uint32_t kKindPartition = 2;
constexpr std::uint32_t kKindPerm = 3;

struct ArtifactHeader {
  std::uint64_t magic;
  std::uint32_t format_version;
  std::uint32_t kind;
  std::uint64_t key;
  std::uint64_t payload_bytes;
  std::uint64_t payload_hash;
};

/// Flat little-endian-native byte buffer builder/reader for payloads.
class Writer {
 public:
  template <typename T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const char*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  template <typename T>
  void put_array(std::span<const T> xs) {
    const auto* p = reinterpret_cast<const char*>(xs.data());
    bytes_.insert(bytes_.end(), p, p + sizeof(T) * xs.size());
  }
  [[nodiscard]] const std::vector<char>& bytes() const { return bytes_; }

 private:
  std::vector<char> bytes_;
};

class Reader {
 public:
  explicit Reader(const std::vector<char>& bytes) : bytes_(bytes) {}

  template <typename T>
  bool get(T& out) {
    if (pos_ + sizeof(T) > bytes_.size()) return false;
    std::memcpy(&out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  template <typename T>
  bool get_array(std::vector<T>& out, std::size_t count) {
    if (count > (bytes_.size() - pos_) / sizeof(T)) return false;
    out.resize(count);
    if (count > 0) std::memcpy(out.data(), bytes_.data() + pos_, sizeof(T) * count);
    pos_ += sizeof(T) * count;
    return true;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  const std::vector<char>& bytes_;
  std::size_t pos_ = 0;
};

const char* kind_ext(std::uint32_t kind) {
  if (kind == kKindGraph) return ".graph";
  return kind == kKindPerm ? ".perm" : ".part";
}

std::string reject(const std::string& path, const std::string& why) {
  LOG_WARN << "artifact cache: rejecting " << path << " (" << why
           << "); entry will be rebuilt";
  std::error_code ec;
  fs::remove(path, ec);
  return why;
}

/// Read + verify an artifact's payload; empty optional on any mismatch.
std::optional<std::vector<char>> read_payload(const std::string& path,
                                              std::uint32_t kind,
                                              std::uint64_t key) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;  // plain miss, not corruption
  ArtifactHeader hdr{};
  f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  if (!f) {
    reject(path, "truncated header");
    return std::nullopt;
  }
  if (hdr.magic != kArtifactMagic) {
    reject(path, "bad magic");
    return std::nullopt;
  }
  if (hdr.format_version != kFormatVersion) {
    reject(path, "format version " + std::to_string(hdr.format_version) +
                     " != " + std::to_string(kFormatVersion));
    return std::nullopt;
  }
  if (hdr.kind != kind) {
    reject(path, "wrong artifact kind");
    return std::nullopt;
  }
  if (hdr.key != key) {
    reject(path, "key mismatch (hash collision or renamed entry)");
    return std::nullopt;
  }
  // Check the declared size against the file before allocating, so a
  // corrupt count is rejected instead of throwing std::bad_alloc.
  std::error_code ec;
  const std::uintmax_t file_bytes = fs::file_size(path, ec);
  if (ec || hdr.payload_bytes > file_bytes - sizeof(hdr)) {
    reject(path, "truncated payload");
    return std::nullopt;
  }
  std::vector<char> payload(hdr.payload_bytes);
  f.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!f || f.gcount() != static_cast<std::streamsize>(payload.size())) {
    reject(path, "truncated payload");
    return std::nullopt;
  }
  if (f.peek() != std::ifstream::traits_type::eof()) {
    reject(path, "trailing bytes after payload");
    return std::nullopt;
  }
  if (fnv1a(payload.data(), payload.size()) != hdr.payload_hash) {
    reject(path, "payload checksum mismatch");
    return std::nullopt;
  }
  return payload;
}

bool write_artifact(const std::string& dir, const std::string& path,
                    std::uint32_t kind, std::uint64_t key,
                    const std::vector<char>& payload) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    LOG_WARN << "artifact cache: cannot create " << dir << ": "
             << ec.message();
    return false;
  }
  const ArtifactHeader hdr{kArtifactMagic, kFormatVersion,      kind, key,
                           payload.size(), fnv1a(payload.data(),
                                                 payload.size())};
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      LOG_WARN << "artifact cache: cannot write " << tmp;
      return false;
    }
    f.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
    f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!f) {
      LOG_WARN << "artifact cache: write error on " << tmp;
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    LOG_WARN << "artifact cache: cannot rename " << tmp << ": "
             << ec.message();
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace

std::uint64_t graph_revision(const graph::Graph& g) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  std::uint64_t h = fnv1a(&n, sizeof(n));
  h = fnv1a(&m, sizeof(m), h);
  // Targets alone don't pin the structure (they lack the run boundaries),
  // so fold the out-offsets in too; the in-side is derived from the same
  // edge set and adds nothing.
  const auto offsets = g.out_offsets();
  const auto targets = g.out_targets();
  h = fnv1a(offsets.data(), offsets.size_bytes(), h);
  h = fnv1a(targets.data(), targets.size_bytes(), h);
  return h;
}

CacheKey CacheKey::for_file(const std::string& path, std::string_view tag) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw std::runtime_error("cannot hash cache input: " + path);
  std::uint64_t h = fnv1a_str(tag);
  std::vector<char> buf(1 << 20);
  while (f) {
    f.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    h = fnv1a(buf.data(), static_cast<std::size_t>(f.gcount()), h);
  }
  return CacheKey(h, "file:" + path + ":" + std::string(tag));
}

CacheKey CacheKey::for_spec(std::string_view spec) {
  return CacheKey(fnv1a_str(spec), "spec:" + std::string(spec));
}

CacheKey CacheKey::derive(std::string_view suffix) const {
  return CacheKey(fnv1a_str(suffix, hash_), desc_ + std::string(suffix));
}

std::string CacheKey::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) dir_ = default_dir();
}

std::string ArtifactStore::default_dir() {
  if (const char* dir = std::getenv("BPART_CACHE_DIR");
      dir != nullptr && dir[0] != '\0')
    return dir;
  return ".bpart-cache";
}

bool ArtifactStore::enabled() {
  const char* v = std::getenv("BPART_CACHE");
  if (v == nullptr) return true;
  const std::string s(v);
  return !(s == "0" || s == "false" || s == "off" || s == "no");
}

std::optional<graph::Graph> ArtifactStore::load_graph(
    const CacheKey& key) const {
  const std::string path = dir_ + "/" + key.hex() + kind_ext(kKindGraph);
  auto payload = read_payload(path, kKindGraph, key.hash());
  if (!payload) return std::nullopt;
  Reader r(*payload);
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::vector<graph::EdgeId> out_off;
  std::vector<graph::VertexId> out_tgt;
  std::vector<graph::EdgeId> in_off;
  std::vector<graph::VertexId> in_tgt;
  if (!r.get(n) || !r.get(m) || !r.get_array(out_off, n + 1) ||
      !r.get_array(out_tgt, m) || !r.get_array(in_off, n + 1) ||
      !r.get_array(in_tgt, m) || !r.exhausted()) {
    reject(path, "payload layout mismatch");
    return std::nullopt;
  }
  try {
    return graph::Graph::from_csr(std::move(out_off), std::move(out_tgt),
                                  std::move(in_off), std::move(in_tgt));
  } catch (const std::exception& e) {
    reject(path, std::string("invalid CSR: ") + e.what());
    return std::nullopt;
  }
}

bool ArtifactStore::store_graph(const CacheKey& key,
                                const graph::Graph& g) const {
  Writer w;
  w.put<std::uint64_t>(g.num_vertices());
  w.put<std::uint64_t>(g.num_edges());
  w.put_array(g.out_offsets());
  w.put_array(g.out_targets());
  w.put_array(g.in_offsets());
  w.put_array(g.in_targets());
  const std::string path = dir_ + "/" + key.hex() + kind_ext(kKindGraph);
  return write_artifact(dir_, path, kKindGraph, key.hash(), w.bytes());
}

std::optional<partition::Partition> ArtifactStore::load_partition(
    const CacheKey& key) const {
  const std::string path = dir_ + "/" + key.hex() + kind_ext(kKindPartition);
  auto payload = read_payload(path, kKindPartition, key.hash());
  if (!payload) return std::nullopt;
  Reader r(*payload);
  std::uint64_t n = 0;
  std::uint32_t k = 0;
  std::vector<partition::PartId> assign;
  if (!r.get(n) || !r.get(k) || !r.get_array(assign, n) || !r.exhausted()) {
    reject(path, "payload layout mismatch");
    return std::nullopt;
  }
  try {
    return partition::Partition(std::move(assign), k);
  } catch (const std::exception& e) {
    reject(path, std::string("invalid partition: ") + e.what());
    return std::nullopt;
  }
}

bool ArtifactStore::store_partition(const CacheKey& key,
                                    const partition::Partition& p) const {
  Writer w;
  w.put<std::uint64_t>(p.num_vertices());
  w.put<std::uint32_t>(p.num_parts());
  w.put_array(p.assignment());
  const std::string path = dir_ + "/" + key.hex() + kind_ext(kKindPartition);
  return write_artifact(dir_, path, kKindPartition, key.hash(), w.bytes());
}

std::optional<std::vector<graph::VertexId>> ArtifactStore::load_perm(
    const CacheKey& key) const {
  const std::string path = dir_ + "/" + key.hex() + kind_ext(kKindPerm);
  auto payload = read_payload(path, kKindPerm, key.hash());
  if (!payload) return std::nullopt;
  Reader r(*payload);
  std::uint64_t n = 0;
  std::vector<graph::VertexId> perm;
  if (!r.get(n) || !r.get_array(perm, n) || !r.exhausted()) {
    reject(path, "payload layout mismatch");
    return std::nullopt;
  }
  // Structural validation mirrors the graph/partition loaders: a corrupt
  // permutation silently scrambles every downstream result, so reject loudly.
  std::vector<bool> seen(perm.size(), false);
  for (graph::VertexId x : perm) {
    if (x >= perm.size() || seen[x]) {
      reject(path, "not a permutation");
      return std::nullopt;
    }
    seen[x] = true;
  }
  return perm;
}

bool ArtifactStore::store_perm(const CacheKey& key,
                               const std::vector<graph::VertexId>& perm) const {
  Writer w;
  w.put<std::uint64_t>(perm.size());
  w.put_array(std::span<const graph::VertexId>(perm));
  const std::string path = dir_ + "/" + key.hex() + kind_ext(kKindPerm);
  return write_artifact(dir_, path, kKindPerm, key.hash(), w.bytes());
}

bool ArtifactStore::has_graph(const CacheKey& key) const {
  std::error_code ec;
  return fs::exists(dir_ + "/" + key.hex() + kind_ext(kKindGraph), ec);
}

bool ArtifactStore::has_partition(const CacheKey& key) const {
  std::error_code ec;
  return fs::exists(dir_ + "/" + key.hex() + kind_ext(kKindPartition), ec);
}

bool ArtifactStore::has_perm(const CacheKey& key) const {
  std::error_code ec;
  return fs::exists(dir_ + "/" + key.hex() + kind_ext(kKindPerm), ec);
}

std::size_t ArtifactStore::purge() const {
  std::error_code ec;
  std::size_t removed = 0;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const auto ext = entry.path().extension();
    if (ext == ".graph" || ext == ".part" || ext == ".perm" ||
        ext == ".tmp") {
      fs::remove(entry.path(), ec);
      if (!ec) ++removed;
    }
  }
  return removed;
}

}  // namespace bpart::pipeline
