#include "represent/term_table.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace useful::represent {

namespace {

/// A copy of `bytes` in the storage a file read would fill.
FileImage CopyImage(std::string_view bytes) {
  FileImage image{AllocatePrefaulted<char>(bytes.size()), bytes.size()};
  std::copy(bytes.begin(), bytes.end(), image.data.get());
  return image;
}

}  // namespace

Result<TermTable> TermTable::Index(FileImage image) {
  if (image.size > kEmpty) {
    return Status::Corruption("representative image exceeds 4 GiB");
  }
  TermTable table;
  std::string_view bytes = image.view();
  table.image_ = std::move(image.data);
  Result<Urp1Header> header = ParseUrp1Header(&bytes);
  if (!header.ok()) return header.status();
  const Urp1Header& h = header.value();
  table.engine_name_ = std::string(h.engine_name);
  table.num_docs_ = static_cast<std::size_t>(h.num_docs);
  table.kind_ = h.kind;
  table.stale_max_ = h.stale_max;
  const std::size_t num_slots = std::bit_ceil(2 * h.num_terms + 2);
  table.slots_ = AllocatePrefaulted<std::uint32_t>(num_slots);
  std::fill_n(table.slots_.get(), num_slots, kEmpty);
  table.slot_mask_ = num_slots - 1;
  for (std::uint64_t i = 0; i < h.num_terms; ++i) {
    const auto record =
        static_cast<std::uint32_t>(bytes.data() - table.image_.get());
    std::string_view term;
    USEFUL_RETURN_IF_ERROR(ParseUrp1Term(&bytes, &term, nullptr));
    std::uint32_t& slot = table.slots_[table.SlotOf(term)];
    if (slot == kEmpty) ++table.num_terms_;
    slot = record;
  }
  return table;
}

Result<TermTable> TermTable::Parse(std::string_view bytes) {
  return Index(CopyImage(bytes));
}

Result<TermTable> TermTable::Load(const std::string& path) {
  Result<FileImage> image = ReadFileImage(path);
  if (!image.ok()) return image.status();
  return Index(std::move(image).value());
}

Result<TermTable> TermTable::Load(const InputFile& file) {
  Result<FileImage> image = file.ReadAll();
  if (!image.ok()) return image.status();
  return Index(std::move(image).value());
}

Result<TermTable> TermTable::Freeze(const Representative& rep) {
  std::ostringstream out;
  USEFUL_RETURN_IF_ERROR(WriteRepresentative(rep, out));
  const std::string_view image = out.view();
  if (image.size() > kEmpty) {
    return Status::InvalidArgument("representative image exceeds 4 GiB: " +
                                   rep.engine_name());
  }
  return Index(CopyImage(image));
}

}  // namespace useful::represent
