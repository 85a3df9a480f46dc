#include "represent/term_table.h"

#include <bit>
#include <sstream>

namespace useful::represent {

Result<TermTable> TermTable::Index(std::string image) {
  if (image.size() > kEmpty) {
    return Status::Corruption("representative image exceeds 4 GiB");
  }
  TermTable table;
  table.image_ = std::move(image);
  std::string_view bytes = table.image_;
  Result<Urp1Header> header = ParseUrp1Header(&bytes);
  if (!header.ok()) return header.status();
  const Urp1Header& h = header.value();
  table.engine_name_ = std::string(h.engine_name);
  table.num_docs_ = static_cast<std::size_t>(h.num_docs);
  table.kind_ = h.kind;
  table.stale_max_ = h.stale_max;
  table.slots_.assign(std::bit_ceil(2 * h.num_terms + 2), kEmpty);
  for (std::uint64_t i = 0; i < h.num_terms; ++i) {
    const auto record =
        static_cast<std::uint32_t>(bytes.data() - table.image_.data());
    std::string_view term;
    TermStats ts;
    USEFUL_RETURN_IF_ERROR(ParseUrp1Term(&bytes, &term, &ts));
    std::uint32_t& slot = table.slots_[table.SlotOf(term)];
    if (slot == kEmpty) ++table.num_terms_;
    slot = record;
  }
  return table;
}

Result<TermTable> TermTable::Parse(std::string_view bytes) {
  return Index(std::string(bytes));
}

Result<TermTable> TermTable::Load(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return Index(std::move(bytes).value());
}

Result<TermTable> TermTable::Freeze(const Representative& rep) {
  std::ostringstream out;
  USEFUL_RETURN_IF_ERROR(WriteRepresentative(rep, out));
  std::string image = std::move(out).str();
  if (image.size() > kEmpty) {
    return Status::InvalidArgument("representative image exceeds 4 GiB: " +
                                   rep.engine_name());
  }
  return Index(std::move(image));
}

}  // namespace useful::represent
