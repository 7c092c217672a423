// Tests for the DWARF subsystem: LEB128 coding, writer→reader roundtrip,
// structure extraction, Listing-1 header generation, module container.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "src/dwarf/constants.hpp"
#include "src/dwarf/extract.hpp"
#include "src/dwarf/leb128.hpp"
#include "src/dwarf/module_binary.hpp"
#include "src/dwarf/reader.hpp"
#include "src/dwarf/writer.hpp"

namespace pd::dwarf {
namespace {

TEST(Leb128, UnsignedRoundtrip) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16384ull,
                          0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::vector<std::uint8_t> buf;
    write_uleb128(buf, v);
    ByteCursor cur(buf.data(), buf.size());
    auto r = cur.read_uleb128();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, v);
    EXPECT_EQ(cur.offset(), buf.size());
  }
}

TEST(Leb128, SignedRoundtrip) {
  for (std::int64_t v : std::initializer_list<std::int64_t>{
           0, 1, -1, 63, 64, -64, -65, 8191, -1234567, INT64_MAX, INT64_MIN}) {
    std::vector<std::uint8_t> buf;
    write_sleb128(buf, v);
    ByteCursor cur(buf.data(), buf.size());
    auto r = cur.read_sleb128();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, v);
  }
}

TEST(Leb128, NineAndTenByteSignedEncodings) {
  // Nine bytes end at shift 63: the sign extension sets bit 63 alone.
  // Ten bytes carry bit 63 in the last byte and need no extension.
  struct Case {
    std::vector<std::uint8_t> bytes;
    std::int64_t value;
  };
  const std::vector<Case> cases = {
      {{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}, INT64_MIN / 2},
      {{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, -1},
      {{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x3F}, INT64_MAX / 2},
      {{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F}, INT64_MIN},
      {{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00}, INT64_MAX},
      {{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, -1},
  };
  for (const Case& c : cases) {
    ByteCursor cur(c.bytes.data(), c.bytes.size());
    auto r = cur.read_sleb128();
    ASSERT_TRUE(r.ok()) << c.bytes.size() << "-byte encoding of " << c.value;
    EXPECT_EQ(*r, c.value) << c.bytes.size() << "-byte encoding";
    EXPECT_EQ(cur.offset(), c.bytes.size());
  }
  // An eleventh byte cannot fit in 64 bits.
  std::vector<std::uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  ByteCursor cur(eleven.data(), eleven.size());
  EXPECT_FALSE(cur.read_sleb128().ok());
}

TEST(Leb128, KnownEncodings) {
  // Classic DWARF spec examples.
  std::vector<std::uint8_t> buf;
  write_uleb128(buf, 624485);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0xE5, 0x8E, 0x26}));
  buf.clear();
  write_sleb128(buf, -123456);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0xC0, 0xBB, 0x78}));
}

TEST(ByteCursor, RejectsOutOfBounds) {
  std::uint8_t data[2] = {0x80, 0x80};  // unterminated LEB128
  ByteCursor cur(data, 2);
  EXPECT_FALSE(cur.read_uleb128().ok());
  ByteCursor cur2(data, 1);
  EXPECT_FALSE(cur2.read_u32().ok());
  ByteCursor cur3(data, 2);
  EXPECT_FALSE(cur3.read_cstring().ok());  // no NUL
}

// Build a small type graph resembling driver structures.
InfoBuilder small_builder() {
  InfoBuilder b;
  const TypeRef u32 = b.add_base_type("unsigned int", 4, DW_ATE_unsigned);
  const TypeRef u64 = b.add_base_type("long unsigned int", 8, DW_ATE_unsigned);
  const TypeRef states = b.add_enum("sdma_states", 4,
                                    {{"sdma_state_s00_hw_down", 0},
                                     {"sdma_state_s10_hw_start_up_halt_wait", 1},
                                     {"sdma_state_s99_running", 9}});
  b.add_struct("sdma_state", 64,
               {{"goto_count", u64, 0},
                {"current_state", states, 40},
                {"go_s99_running", u32, 48},
                {"previous_state", states, 52}});
  return b;
}

TEST(WriterReader, RoundtripFindsStruct) {
  const DebugInfo dbg = small_builder().build("pd-test", "hfi1.ko");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  const Die* s = view->find_named(DW_TAG_structure_type, "sdma_state");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->unsigned_attr(DW_AT_byte_size), 64u);
  EXPECT_EQ(s->children.size(), 4u);
}

TEST(WriterReader, CompileUnitAttributes) {
  const DebugInfo dbg = small_builder().build("pd-producer", "module.ko");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  const Die& cu = view->compile_unit();
  EXPECT_EQ(cu.tag, DW_TAG_compile_unit);
  const AttrValue* prod = cu.find_attr(DW_AT_producer);
  ASSERT_NE(prod, nullptr);
  EXPECT_EQ(std::get<std::string>(*prod), "pd-producer");
  EXPECT_EQ(cu.name(), "module.ko");
}

TEST(WriterReader, MemberOffsetsSurvive) {
  const DebugInfo dbg = small_builder().build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  const Die* s = view->find_named(DW_TAG_structure_type, "sdma_state");
  ASSERT_NE(s, nullptr);
  std::map<std::string, std::uint64_t> offsets;
  for (const auto& child : s->children) {
    if (child->tag == DW_TAG_member)
      offsets[*child->name()] = *child->unsigned_attr(DW_AT_data_member_location);
  }
  EXPECT_EQ(offsets["goto_count"], 0u);
  EXPECT_EQ(offsets["current_state"], 40u);
  EXPECT_EQ(offsets["go_s99_running"], 48u);
  EXPECT_EQ(offsets["previous_state"], 52u);
}

TEST(WriterReader, TypeReferencesResolve) {
  const DebugInfo dbg = small_builder().build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  const Die* s = view->find_named(DW_TAG_structure_type, "sdma_state");
  const Die* member = s->children[1].get();  // current_state
  const Die* type = view->type_of(*member);
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->tag, DW_TAG_enumeration_type);
  EXPECT_EQ(type->name(), "sdma_states");
  EXPECT_EQ(type->children.size(), 3u);
}

TEST(WriterReader, SelfReferentialStructViaForwardRef) {
  InfoBuilder b;
  const TypeRef node_fwd = b.forward_struct("list_node");
  const TypeRef node_ptr = b.add_pointer(node_fwd);
  b.define_struct(node_fwd, 16, {{"next", node_ptr, 0}, {"prev", node_ptr, 8}});
  const DebugInfo dbg = b.build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  const Die* s = view->find_named(DW_TAG_structure_type, "list_node");
  ASSERT_NE(s, nullptr);
  const Die* next_type = view->type_of(*s->children[0]);
  ASSERT_NE(next_type, nullptr);
  EXPECT_EQ(next_type->tag, DW_TAG_pointer_type);
  const Die* pointee = view->type_of(*next_type);
  ASSERT_NE(pointee, nullptr);
  EXPECT_EQ(pointee->name(), "list_node");
}

TEST(WriterReader, ArraysCarryCounts) {
  InfoBuilder b;
  const TypeRef u16 = b.add_base_type("short unsigned int", 2, DW_ATE_unsigned);
  const TypeRef arr = b.add_array(u16, 16);
  b.add_struct("with_array", 32, {{"tids", arr, 0}});
  const DebugInfo dbg = b.build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  auto layout = extract_struct(*view, "with_array", {"tids"});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->fields[0].size, 32u);
  EXPECT_EQ(layout->fields[0].type_decl, "short unsigned int tids[16]");
}

TEST(WriterReader, MalformedInputRejected) {
  const DebugInfo dbg = small_builder().build("p", "m");
  // Truncated info.
  std::vector<std::uint8_t> cut(dbg.info.begin(), dbg.info.begin() + dbg.info.size() / 2);
  EXPECT_FALSE(DebugInfoView::parse(dbg.abbrev, cut).ok());
  // Garbage abbrev.
  std::vector<std::uint8_t> junk = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(DebugInfoView::parse(junk, dbg.info).ok());
}

TEST(Extract, LayoutOffsetsAndSizes) {
  const DebugInfo dbg = small_builder().build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  auto layout = extract_struct(*view, "sdma_state",
                               {"current_state", "go_s99_running", "previous_state"});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->byte_size, 64u);
  ASSERT_EQ(layout->fields.size(), 3u);
  EXPECT_EQ(layout->fields[0].offset, 40u);
  EXPECT_EQ(layout->fields[0].size, 4u);
  EXPECT_EQ(layout->fields[1].offset, 48u);
  EXPECT_EQ(layout->fields[2].offset, 52u);
  EXPECT_EQ(layout->field("go_s99_running")->type_decl, "unsigned int go_s99_running");
}

TEST(Extract, MissingStructOrFieldFails) {
  const DebugInfo dbg = small_builder().build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(extract_struct(*view, "nonexistent", {"x"}).error(), Errno::enoent);
  EXPECT_EQ(extract_struct(*view, "sdma_state", {"no_such_field"}).error(), Errno::enoent);
}

// Debug info comes from driver binaries the LWK does not control: malformed
// type graphs must get EINVAL from both extraction entry points, and in
// bounded time (a hang fails this binary by its ctest timeout).
void expect_einval(const DebugInfo& dbg, const std::string& struct_name,
                   const std::string& field) {
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(extract_struct(*view, struct_name, {field}).error(), Errno::einval);
  EXPECT_EQ(extract_struct_header(*view, struct_name, {field}).error(), Errno::einval);
}

void expect_einval(const InfoBuilder& b, const std::string& struct_name,
                   const std::string& field) {
  expect_einval(b.build("p", "m"), struct_name, field);
}

/// A 16-byte struct with one bitfield member `bits` in a 4-byte unit at 8.
InfoBuilder bitfield_struct(std::uint64_t bit_size, std::uint64_t bit_offset) {
  InfoBuilder b;
  const TypeRef u32 = b.add_base_type("unsigned int", 4, DW_ATE_unsigned);
  b.add_struct("flags", 16, {{"bits", u32, 8, bit_size, bit_offset}});
  return b;
}

TEST(ExtractMalformed, TypedefCycleIsRejected) {
  // Node 1 is the typedef itself: its DW_AT_type points back at it.
  InfoBuilder b;
  const TypeRef loop = b.add_typedef("loop_t", TypeRef{1});
  b.add_struct("cyclic", 16, {{"x", loop, 0}});
  expect_einval(b, "cyclic", "x");
}

TEST(ExtractMalformed, TypedefPointerCycleIsRejected) {
  // `typedef loop_t *loop_t;`: node 1 is the typedef, node 2 the pointer
  // back to it. The size stops at the pointer and the declaration at the
  // typedef name, so only a walk of the whole chain sees the cycle.
  InfoBuilder b;
  const TypeRef loop = b.add_typedef("loop_t", TypeRef{2});
  b.add_pointer(loop);
  b.add_struct("cyclic", 16, {{"x", loop, 0}});
  expect_einval(b, "cyclic", "x");
}

TEST(ExtractMalformed, ArraySizeOverflowIsRejected) {
  // (2^61 + 1) eight-byte elements: the byte count wraps 64 bits to 8.
  InfoBuilder b;
  const TypeRef u64 = b.add_base_type("long unsigned int", 8, DW_ATE_unsigned);
  const TypeRef huge = b.add_array(u64, (std::uint64_t{1} << 61) + 1);
  b.add_struct("wraps", 16, {{"arr", huge, 0}});
  expect_einval(b, "wraps", "arr");
}

TEST(ExtractMalformed, FieldOffsetPastStructIsRejected) {
  // Offset 2^64 - 2 plus a 4-byte field wraps to 2, inside the 16 bytes.
  InfoBuilder b;
  const TypeRef u32 = b.add_base_type("unsigned int", 4, DW_ATE_unsigned);
  b.add_struct("far", 16, {{"x", u32, ~std::uint64_t{0} - 1}});
  expect_einval(b, "far", "x");
}

TEST(ExtractMalformed, BitfieldOffsetThatWrapsIsRejected) {
  // 0xFFFFFFFF + 2 wraps 32 bits to 1, inside the 32-bit unit.
  expect_einval(bitfield_struct(2, 0xFFFFFFFFull), "flags", "bits");
}

TEST(ExtractMalformed, BitfieldOffsetPast32BitsIsRejected) {
  // 2^32 + 3 narrowed to 32 bits reads as offset 3.
  expect_einval(bitfield_struct(2, (std::uint64_t{1} << 32) + 3), "flags", "bits");
}

TEST(ExtractMalformed, ZeroWidthBitfieldIsRejected) {
  // InfoBuilder writes a member without DW_AT_bit_size when the width is
  // 0, so emit 2^28 (LEB128 80 80 80 80 01) and patch its last byte: the
  // five bytes then decode to 0 and no offset moves.
  DebugInfo dbg = bitfield_struct(std::uint64_t{1} << 28, 0).build("p", "m");
  const std::vector<std::uint8_t> width = {0x80, 0x80, 0x80, 0x80, 0x01};
  auto at = std::search(dbg.info.begin(), dbg.info.end(), width.begin(), width.end());
  ASSERT_NE(at, dbg.info.end());
  at[4] = 0x00;
  expect_einval(dbg, "flags", "bits");
}

TEST(Extract, FullWidthBitfieldKeepsEveryBit) {
  // `unsigned bits : 32` is legal; its mask must not shift 1 by 32.
  const DebugInfo dbg = bitfield_struct(32, 0).build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  auto layout = extract_struct(*view, "flags", {"bits"});
  ASSERT_TRUE(layout.ok());
  alignas(4) std::uint8_t image[16] = {};
  const std::uint32_t word = 0xDEADBEEF;
  __builtin_memcpy(image + 8, &word, 4);
  BitfieldAccessor<std::uint32_t> bits(*layout->field("bits"));
  EXPECT_EQ(bits.read(image), 0xDEADBEEFu);
  bits.write(image, 0x12345678u);
  EXPECT_EQ(bits.read(image), 0x12345678u);
}

// The paper's Listing 1, byte for byte in structure (modulo the paper's
// truncated 3-field selection and its whole_struct convention).
TEST(Extract, Listing1GoldenHeader) {
  const DebugInfo dbg = small_builder().build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  auto layout = extract_struct(*view, "sdma_state",
                               {"current_state", "go_s99_running", "previous_state"});
  ASSERT_TRUE(layout.ok());
  const std::string header = generate_header(*view, *layout);

  const char* expected_struct =
      "struct sdma_state {\n"
      "\tunion {\n"
      "\t\tchar whole_struct[64];\n"
      "\t\tstruct {\n"
      "\t\t\tchar padding0[40];\n"
      "\t\t\tenum sdma_states current_state;\n"
      "\t\t};\n"
      "\t\tstruct {\n"
      "\t\t\tchar padding1[48];\n"
      "\t\t\tunsigned int go_s99_running;\n"
      "\t\t};\n"
      "\t\tstruct {\n"
      "\t\t\tchar padding2[52];\n"
      "\t\t\tenum sdma_states previous_state;\n"
      "\t\t};\n"
      "\t};\n"
      "};\n";
  EXPECT_NE(header.find(expected_struct), std::string::npos) << header;
  // The enum definition must precede so the header is standalone.
  EXPECT_NE(header.find("enum sdma_states {"), std::string::npos);
  EXPECT_LT(header.find("enum sdma_states {"), header.find("struct sdma_state {"));
}

TEST(Extract, FieldAtOffsetZeroHasNoPadding) {
  const DebugInfo dbg = small_builder().build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  auto header = extract_struct_header(*view, "sdma_state", {"goto_count"});
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->find("padding"), std::string::npos);
  EXPECT_NE(header->find("long unsigned int goto_count;"), std::string::npos);
}

TEST(Extract, PointerFieldsRenderForwardDecls) {
  InfoBuilder b;
  const TypeRef page = b.forward_struct("page");
  const TypeRef page_ptr = b.add_pointer(page);
  const TypeRef page_ptr_ptr = b.add_pointer(page_ptr);
  b.add_struct("user_sdma_iovec", 48, {{"pages", page_ptr_ptr, 16}});
  const DebugInfo dbg = b.build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  auto header = extract_struct_header(*view, "user_sdma_iovec", {"pages"});
  ASSERT_TRUE(header.ok());
  EXPECT_NE(header->find("struct page;"), std::string::npos);
  EXPECT_NE(header->find("struct page **pages;"), std::string::npos);
}

// A struct or union held by value (directly or as an array element) gets
// one complete definition of its DWARF byte size, so the field compiles;
// one reached only through a pointer stays a forward declaration.
TEST(Extract, ByValueFieldsRenderCompleteTypes) {
  InfoBuilder b;
  const TypeRef u32 = b.add_base_type("unsigned int", 4, DW_ATE_unsigned);
  const TypeRef u64 = b.add_base_type("long unsigned int", 8, DW_ATE_unsigned);
  const TypeRef word = b.add_union("sdma_word", 8, {{"lo", u32, 0}, {"whole", u64, 0}});
  const TypeRef engine_ptr = b.add_pointer(b.forward_struct("sdma_engine"));
  b.add_struct("sdma_txreq", 40,
               {{"engine", engine_ptr, 0},
                {"word", word, 8},
                {"words", b.add_array(word, 2), 16},
                {"next_word", b.add_pointer(word), 32}});
  const DebugInfo dbg = b.build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  auto header =
      extract_struct_header(*view, "sdma_txreq", {"engine", "word", "words", "next_word"});
  ASSERT_TRUE(header.ok());
  const std::string definition = "union sdma_word {\n\tchar whole_struct[8];\n};\n";
  const std::size_t at = header->find(definition);
  ASSERT_NE(at, std::string::npos) << *header;
  EXPECT_EQ(header->find("union sdma_word", at + 1), header->find("union sdma_word word;"))
      << "defined once, and not forward-declared after\n" << *header;
  EXPECT_LT(at, header->find("struct sdma_txreq {"));
  EXPECT_NE(header->find("struct sdma_engine;"), std::string::npos);
  EXPECT_EQ(header->find("struct sdma_engine {"), std::string::npos);
  EXPECT_NE(header->find("union sdma_word words[2];"), std::string::npos);
  EXPECT_NE(header->find("union sdma_word *next_word;"), std::string::npos);
}

TEST(Extract, FieldAccessorReadsAtExtractedOffset) {
  const DebugInfo dbg = small_builder().build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  auto layout = extract_struct(*view, "sdma_state", {"go_s99_running"});
  ASSERT_TRUE(layout.ok());

  // Simulate the Linux-side structure as a raw image.
  alignas(8) std::uint8_t image[64] = {};
  image[48] = 0x2A;
  FieldAccessor<std::uint32_t> acc(*layout->field("go_s99_running"));
  ASSERT_TRUE(acc.bound());
  EXPECT_EQ(acc.read(image), 42u);
  acc.write(image, 7);
  EXPECT_EQ(image[48], 7);
  EXPECT_EQ(acc.read(image), 7u);
}

TEST(Extract, FieldAccessorBindsOnlyAFieldOfItsWidth) {
  const DebugInfo dbg = small_builder().build("p", "m");
  auto view = DebugInfoView::parse(dbg.abbrev, dbg.info);
  ASSERT_TRUE(view.ok());
  auto layout = extract_struct(*view, "sdma_state", {"go_s99_running"});
  ASSERT_TRUE(layout.ok());
  // A 4-byte field: an 8-byte accessor would touch the 4 bytes after it.
  EXPECT_FALSE(FieldAccessor<std::uint64_t>(*layout->field("go_s99_running")).bound());
  EXPECT_FALSE(FieldAccessor<std::uint16_t>(*layout->field("go_s99_running")).bound());
  EXPECT_TRUE(FieldAccessor<std::uint32_t>(*layout->field("go_s99_running")).bound());
}

TEST(ModuleBinary, SectionRoundtrip) {
  ModuleBinary mod;
  mod.set_section(".debug_info", {1, 2, 3});
  mod.set_section(".text", {});
  mod.set_version("hfi1 10.8.0.0");
  const auto bytes = mod.serialize();
  auto back = ModuleBinary::deserialize(bytes);
  ASSERT_TRUE(back.ok());
  ASSERT_NE(back->section(".debug_info"), nullptr);
  EXPECT_EQ(*back->section(".debug_info"), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(back->version(), "hfi1 10.8.0.0");
  EXPECT_EQ(back->section(".bss"), nullptr);
}

TEST(ModuleBinary, RejectsBadMagic) {
  std::vector<std::uint8_t> junk = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X', 0};
  EXPECT_FALSE(ModuleBinary::deserialize(junk).ok());
}

TEST(ModuleBinary, FileRoundtrip) {
  ModuleBinary mod;
  mod.set_section(".debug_abbrev", {9, 8, 7});
  const std::string path = testing::TempDir() + "/pd_mod_test.ko";
  ASSERT_TRUE(mod.save(path).ok());
  auto back = ModuleBinary::load(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back->section(".debug_abbrev"), (std::vector<std::uint8_t>{9, 8, 7}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pd::dwarf
