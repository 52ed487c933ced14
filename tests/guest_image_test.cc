/**
 * @file
 * Byte-identity of every guest image the evaluation runs: both VMs, all
 * three dispatch constructions, all 11 workloads at the test and sim
 * input sizes (132 images). Each image is folded into one FNV-1a digest
 * over its text (base and words), data segment (base and bytes) and
 * dispatch metadata (ranges, jump pcs, VBBI hints). The expected digests
 * were generated from the builders as they stood when this test was
 * written, so a change to the emitted code, however small, fails here by
 * image name. A deliberate change to the images takes its new digests
 * from the failure messages.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "guest/rlua_guest.hh"
#include "guest/sjs_guest.hh"
#include "harness/workloads.hh"
#include "vm/rlua_compiler.hh"
#include "vm/sjs_compiler.hh"

namespace
{

using namespace scd;
using namespace scd::guest;
using harness::InputSize;

class Digest
{
  public:
    void
    add(uint64_t value)
    {
        for (int n = 0; n < 8; ++n) {
            h_ ^= (value >> (8 * n)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t
imageDigest(const GuestProgram &image)
{
    Digest d;
    d.add(image.text.base);
    d.add(image.text.words.size());
    for (uint32_t word : image.text.words)
        d.add(word);
    d.add(image.dataBase);
    d.add(image.data.size());
    for (uint8_t byte : image.data)
        d.add(byte);
    d.add(image.meta.dispatchRanges.size());
    for (auto [lo, hi] : image.meta.dispatchRanges) {
        d.add(lo);
        d.add(hi);
    }
    d.add(image.meta.dispatchJumpPcs.size());
    for (uint64_t pc : image.meta.dispatchJumpPcs)
        d.add(pc);
    d.add(image.meta.vbbiHints.size());
    for (auto [pc, reg] : image.meta.vbbiHints) {
        d.add(pc);
        d.add(reg);
    }
    return d.value();
}

/** "<workload>/<size>/<kind>" -> expected image digest. */
using DigestTable = std::map<std::string, uint64_t>;

const DigestTable kRluaDigests = {
    {"binary-trees/test/switch", 0x9494e35db3c4ca34ull},
    {"binary-trees/test/threaded", 0xa17b7a4671c04e27ull},
    {"binary-trees/test/scd", 0x0549d337b5ab1f93ull},
    {"binary-trees/sim/switch", 0xd09d878510362a01ull},
    {"binary-trees/sim/threaded", 0x39624620758f36a2ull},
    {"binary-trees/sim/scd", 0xe6fc4e5f65677a06ull},
    {"fannkuch-redux/test/switch", 0x78d69293e6fcd708ull},
    {"fannkuch-redux/test/threaded", 0x42601c59137dead3ull},
    {"fannkuch-redux/test/scd", 0x65861bc9e24de4bbull},
    {"fannkuch-redux/sim/switch", 0x95185665a0a616caull},
    {"fannkuch-redux/sim/threaded", 0xc9400ed5a330df39ull},
    {"fannkuch-redux/sim/scd", 0x009459763049e019ull},
    {"k-nucleotide/test/switch", 0x6b84d96d2d8410baull},
    {"k-nucleotide/test/threaded", 0x1f1cffda04368469ull},
    {"k-nucleotide/test/scd", 0x2f7044185768d689ull},
    {"k-nucleotide/sim/switch", 0x7f94aaf5a7e249a1ull},
    {"k-nucleotide/sim/threaded", 0x3d16b5d040aaf692ull},
    {"k-nucleotide/sim/scd", 0xd9bbdd16b1959432ull},
    {"mandelbrot/test/switch", 0x3f822e9b5fc13823ull},
    {"mandelbrot/test/threaded", 0xac52336d15959b78ull},
    {"mandelbrot/test/scd", 0x3a0b61ec234f8d0cull},
    {"mandelbrot/sim/switch", 0xce8b30482668561full},
    {"mandelbrot/sim/threaded", 0x2eb5204c41e99ffcull},
    {"mandelbrot/sim/scd", 0x67aeadd0a87946d0ull},
    {"n-body/test/switch", 0xd2aee240e5a3dc25ull},
    {"n-body/test/threaded", 0x2f1bef3124d21b32ull},
    {"n-body/test/scd", 0xfd6b486f1b7c5d0aull},
    {"n-body/sim/switch", 0x12bd030351cc3d03ull},
    {"n-body/sim/threaded", 0xb7e20bc1a03464a4ull},
    {"n-body/sim/scd", 0x13e10d1677d9e6acull},
    {"spectral-norm/test/switch", 0x1acfd5556480998cull},
    {"spectral-norm/test/threaded", 0xfeddc41ff1942d73ull},
    {"spectral-norm/test/scd", 0x20622ba224ca4833ull},
    {"spectral-norm/sim/switch", 0x3cb62a92ee9ab3deull},
    {"spectral-norm/sim/threaded", 0x2397862f6fbff309ull},
    {"spectral-norm/sim/scd", 0xef9862bbd83d38c1ull},
    {"n-sieve/test/switch", 0x228e4a19a7d57b95ull},
    {"n-sieve/test/threaded", 0x4bce235d9df5bdaeull},
    {"n-sieve/test/scd", 0x5419553f25b4805aull},
    {"n-sieve/sim/switch", 0x1f2d317c2f9dcca3ull},
    {"n-sieve/sim/threaded", 0xb9544688c6558e48ull},
    {"n-sieve/sim/scd", 0x983e7a5e60eb784cull},
    {"random/test/switch", 0xf4bf94866a25f9c8ull},
    {"random/test/threaded", 0xa1daa502ece97b33ull},
    {"random/test/scd", 0x828983746464ed8bull},
    {"random/sim/switch", 0xb9580ef07b8b0557ull},
    {"random/sim/threaded", 0xeb0437d0de6a0ef4ull},
    {"random/sim/scd", 0x894c80024a35b494ull},
    {"fibo/test/switch", 0xf15601fe14ae7b6aull},
    {"fibo/test/threaded", 0x342b7e98f5085639ull},
    {"fibo/test/scd", 0xd577dcd034daa575ull},
    {"fibo/sim/switch", 0x2388a6cceb316c93ull},
    {"fibo/sim/threaded", 0xd4792f0d07a2fb08ull},
    {"fibo/sim/scd", 0x379ef7f4dfa12f4cull},
    {"ackermann/test/switch", 0xfc275962e2c8ea82ull},
    {"ackermann/test/threaded", 0x2ed10e355f602701ull},
    {"ackermann/test/scd", 0xb616679447dcc51dull},
    {"ackermann/sim/switch", 0xbc192f27eeb82804ull},
    {"ackermann/sim/threaded", 0xe62bed8a331bf4d7ull},
    {"ackermann/sim/scd", 0x8f253c1af14a12dbull},
    {"pidigits/test/switch", 0x8efdbdf980f04d7bull},
    {"pidigits/test/threaded", 0x5de8850c5c379a0cull},
    {"pidigits/test/scd", 0x9a80084c0749408cull},
    {"pidigits/sim/switch", 0x11f71388a6b6b7c8ull},
    {"pidigits/sim/threaded", 0x22b5a081ea2ea13full},
    {"pidigits/sim/scd", 0x3b8fc244be2fc59full},
};

const DigestTable kSjsDigests = {
    {"binary-trees/test/switch", 0x37bc93f016cb81ffull},
    {"binary-trees/test/threaded", 0x75c3898d4d60f66eull},
    {"binary-trees/test/scd", 0x0ebf820e28bfeeb2ull},
    {"binary-trees/sim/switch", 0x86c2a1e7faba717cull},
    {"binary-trees/sim/threaded", 0x97928e061198c541ull},
    {"binary-trees/sim/scd", 0xd4b4e61e16d09ca5ull},
    {"fannkuch-redux/test/switch", 0xf25eb2c8ff198e37ull},
    {"fannkuch-redux/test/threaded", 0xf33be2a95ddb6b56ull},
    {"fannkuch-redux/test/scd", 0x8d31f778d02e5596ull},
    {"fannkuch-redux/sim/switch", 0x2324822f6f085845ull},
    {"fannkuch-redux/sim/threaded", 0x4f9acb4492f5614cull},
    {"fannkuch-redux/sim/scd", 0xae5c589bde3dfab0ull},
    {"k-nucleotide/test/switch", 0xe380a6e5c5e73249ull},
    {"k-nucleotide/test/threaded", 0x17e6aede7896e67cull},
    {"k-nucleotide/test/scd", 0xd9d69f6317a3aef4ull},
    {"k-nucleotide/sim/switch", 0x6038839eac77f772ull},
    {"k-nucleotide/sim/threaded", 0x8317e9af2aef5f8bull},
    {"k-nucleotide/sim/scd", 0x0a5355a3bb0850f3ull},
    {"mandelbrot/test/switch", 0xaadec22856a3b0ccull},
    {"mandelbrot/test/threaded", 0xfa3a8f9b5dcffa2dull},
    {"mandelbrot/test/scd", 0xbc14ed0e21d5c90dull},
    {"mandelbrot/sim/switch", 0xe98cb8ff23aae678ull},
    {"mandelbrot/sim/threaded", 0x8e34022608c62c69ull},
    {"mandelbrot/sim/scd", 0xf531e0ea4b8afb91ull},
    {"n-body/test/switch", 0x0b2f4d1c34d5b13eull},
    {"n-body/test/threaded", 0x7294a99ec00f4498ull},
    {"n-body/test/scd", 0xd38f685add785420ull},
    {"n-body/sim/switch", 0x3438952387c613b1ull},
    {"n-body/sim/threaded", 0xa13347be56f365a2ull},
    {"n-body/sim/scd", 0x484884372a9a21fbull},
    {"spectral-norm/test/switch", 0x21eaaba704c04815ull},
    {"spectral-norm/test/threaded", 0x90eb9155c08b2a6cull},
    {"spectral-norm/test/scd", 0xbc59d86c90b2c2f8ull},
    {"spectral-norm/sim/switch", 0x703c353f77f8eb77ull},
    {"spectral-norm/sim/threaded", 0x2c310506620c0bc6ull},
    {"spectral-norm/sim/scd", 0x603c08d6898aa6ceull},
    {"n-sieve/test/switch", 0x018f72e4d795c601ull},
    {"n-sieve/test/threaded", 0x736dccb448330f34ull},
    {"n-sieve/test/scd", 0x3d0bf231918a9070ull},
    {"n-sieve/sim/switch", 0x8ed177c2dbb832afull},
    {"n-sieve/sim/threaded", 0xed1fdbc873a61bbaull},
    {"n-sieve/sim/scd", 0x5d5d914060b4f53aull},
    {"random/test/switch", 0xcd11b544dd07373dull},
    {"random/test/threaded", 0x519ce2a101568bf0ull},
    {"random/test/scd", 0x6522a69d0bf58d10ull},
    {"random/sim/switch", 0x448299ea2d5c0c9aull},
    {"random/sim/threaded", 0xd09891f8981e80c3ull},
    {"random/sim/scd", 0x07e1a38d55541893ull},
    {"fibo/test/switch", 0xc1a7523cf18aecbfull},
    {"fibo/test/threaded", 0x7d7629fdc4842e02ull},
    {"fibo/test/scd", 0x34bf81ff23a23372ull},
    {"fibo/sim/switch", 0xa0634f351cc79216ull},
    {"fibo/sim/threaded", 0x894f25a73cd28367ull},
    {"fibo/sim/scd", 0x426197d117e0e15bull},
    {"ackermann/test/switch", 0x37693b60d86f2447ull},
    {"ackermann/test/threaded", 0x22fc05f4edb77ea6ull},
    {"ackermann/test/scd", 0x099ba22704d1b862ull},
    {"ackermann/sim/switch", 0xda36adb635614a79ull},
    {"ackermann/sim/threaded", 0x26eb919890520908ull},
    {"ackermann/sim/scd", 0xbd50ee817d93d338ull},
    {"pidigits/test/switch", 0x9e8f8e2c19f6f623ull},
    {"pidigits/test/threaded", 0xdc718cdcd1d0bd7aull},
    {"pidigits/test/scd", 0x19f6fdc80b0c6ba6ull},
    {"pidigits/sim/switch", 0x3989b9d64b001860ull},
    {"pidigits/sim/threaded", 0x2dc39ab3d66639ddull},
    {"pidigits/sim/scd", 0xb51262ebfa771299ull},
};

template <typename Build>
void
checkDigests(const DigestTable &expected, Build build)
{
    const DispatchKind kinds[] = {DispatchKind::Switch,
                                  DispatchKind::Threaded, DispatchKind::Scd};
    const InputSize sizes[] = {InputSize::Test, InputSize::Sim};
    size_t checked = 0;
    for (const harness::Workload &w : harness::workloads()) {
        for (InputSize size : sizes) {
            std::string source = w.text(size);
            for (DispatchKind kind : kinds) {
                std::string name = w.name + "/" +
                                   harness::inputSizeName(size) + "/" +
                                   dispatchKindName(kind);
                uint64_t digest = imageDigest(build(source, kind));
                auto it = expected.find(name);
                char actual[40];
                std::snprintf(actual, sizeof actual, "0x%016llxull",
                              static_cast<unsigned long long>(digest));
                if (it == expected.end()) {
                    ADD_FAILURE() << "no digest for {\"" << name << "\", "
                                  << actual << "}";
                    continue;
                }
                EXPECT_EQ(it->second, digest)
                    << name << " image changed: now {\"" << name << "\", "
                    << actual << "}";
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 66u);
    EXPECT_EQ(expected.size(), 66u);
}

TEST(GuestImage, RluaImagesMatchTheirDigests)
{
    checkDigests(kRluaDigests, [](const std::string &src, DispatchKind kind) {
        return buildRluaGuest(vm::rlua::compileSource(src), kind);
    });
}

TEST(GuestImage, SjsImagesMatchTheirDigests)
{
    checkDigests(kSjsDigests, [](const std::string &src, DispatchKind kind) {
        return buildSjsGuest(vm::sjs::compileSource(src), kind);
    });
}

} // namespace
