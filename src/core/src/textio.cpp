#include "ddr/textio.hpp"

#include <istream>
#include <sstream>

#include "ddr/error.hpp"

namespace ddr {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw Error("layout parse error at line " + std::to_string(line) + ": " +
              what);
}

/// Parses "8x1@0,4" into a Chunk with the given rank count of dimensions.
Chunk parse_chunk(const std::string& token, int ndims, int line) {
  const std::size_t at = token.find('@');
  if (at == std::string::npos) fail(line, "chunk '" + token + "' missing '@'");
  auto split = [&](const std::string& s, char sep) {
    std::vector<int> out;
    std::stringstream ss(s);
    std::string part;
    while (std::getline(ss, part, sep)) {
      try {
        std::size_t used = 0;
        const int v = std::stoi(part, &used);
        if (used != part.size()) throw std::invalid_argument(part);
        out.push_back(v);
      } catch (const std::exception&) {
        fail(line, "bad integer '" + part + "' in chunk '" + token + "'");
      }
    }
    return out;
  };
  const std::vector<int> dims = split(token.substr(0, at), 'x');
  const std::vector<int> offs = split(token.substr(at + 1), ',');
  if (static_cast<int>(dims.size()) != ndims ||
      static_cast<int>(offs.size()) != ndims)
    fail(line, "chunk '" + token + "' must have " + std::to_string(ndims) +
                   " dims and offsets");
  for (const int d : dims)
    if (d < 0) fail(line, "chunk '" + token + "' has a negative extent");
  return Chunk(ndims, dims, offs);
}

}  // namespace

LayoutSpec parse_layout(std::istream& in) {
  LayoutSpec spec;
  std::string raw;
  int line = 0;
  bool saw_ndims = false, saw_elem = false;
  while (std::getline(in, raw)) {
    ++line;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ls(raw);
    std::string key;
    if (!(ls >> key)) continue;  // blank line

    if (key == "ndims") {
      if (!(ls >> spec.ndims) || spec.ndims < 1 || spec.ndims > kMaxDims)
        fail(line, "ndims must be 1, 2 or 3");
      saw_ndims = true;
    } else if (key == "elem") {
      long long v = 0;
      if (!(ls >> v) || v < 1) fail(line, "elem must be a positive byte size");
      spec.elem_size = static_cast<std::size_t>(v);
      saw_elem = true;
    } else if (key == "rank") {
      if (!saw_ndims) fail(line, "'ndims' must appear before the first rank");
      OwnedLayout own;
      NeededLayout need;
      std::string kind;
      while (ls >> kind) {
        std::string chunk_token;
        if (!(ls >> chunk_token)) fail(line, "dangling '" + kind + "'");
        if (kind == "own") {
          own.push_back(parse_chunk(chunk_token, spec.ndims, line));
        } else if (kind == "need") {
          need.push_back(parse_chunk(chunk_token, spec.ndims, line));
        } else {
          fail(line, "expected 'own' or 'need', got '" + kind + "'");
        }
      }
      spec.layout.owned.push_back(std::move(own));
      spec.layout.needed.push_back(std::move(need));
    } else {
      fail(line, "unknown keyword '" + key + "'");
    }
  }
  if (!saw_ndims) fail(line, "missing 'ndims'");
  if (!saw_elem) spec.elem_size = 1;
  if (spec.layout.owned.empty()) fail(line, "no ranks declared");
  return spec;
}

LayoutSpec parse_layout(const std::string& text) {
  std::istringstream in(text);
  return parse_layout(in);
}

std::string format_layout(const LayoutSpec& spec) {
  std::ostringstream os;
  os << "ndims " << spec.ndims << "\n";
  os << "elem " << spec.elem_size << "\n";
  auto chunk_str = [&](const Chunk& c) {
    std::string dims, offs;
    for (int d = 0; d < spec.ndims; ++d) {
      const auto k = static_cast<std::size_t>(d);
      if (d) {
        dims += "x";
        offs += ",";
      }
      dims += std::to_string(c.dims[k]);
      offs += std::to_string(c.offsets[k]);
    }
    return dims + "@" + offs;
  };
  for (int r = 0; r < spec.layout.nranks(); ++r) {
    const auto ri = static_cast<std::size_t>(r);
    os << "rank";
    for (const Chunk& c : spec.layout.owned[ri]) os << " own " << chunk_str(c);
    for (const Chunk& c : spec.layout.needed[ri])
      os << " need " << chunk_str(c);
    os << "\n";
  }
  return os.str();
}

}  // namespace ddr
