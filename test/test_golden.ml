(* Golden digests: absolute byte identity of the compiler's output.

   Every other identity test here is relative (straight vs resumed,
   cold vs warm, direct vs daemon, prefix planner on vs off), so a
   change that alters the bytes the same way in both arms passes all of
   them. These values pin [Emit.full_digest] of every suite program and
   of a fixed corpus at each standard configuration, plus the rendered
   corpus tables. They change only when a change means to change what
   the compiler emits; regenerate them then from the [actual_*]
   functions below and say why in the change. *)

module C = Debugtuner.Config
module E = Debugtuner.Experiments
module ME = Debugtuner.Measure_engine
module T = Debugtuner.Toolchain

let corpus_seed = 1
let corpus_n = 24

let digests (programs : Suite_types.sprogram list) =
  List.concat_map
    (fun (p : Suite_types.sprogram) ->
      let ast = Suite_types.ast p and roots = Suite_types.roots p in
      List.map
        (fun config ->
          ( p.Suite_types.p_name,
            C.name config,
            (T.compile ast ~config ~roots).Emit.full_digest ))
        E.all_standard_configs)
    programs

let actual_suite () = digests Programs.all

let actual_corpus () =
  digests
    (List.map
       (fun (e : Corpus.entry) -> e.Corpus.e_program)
       (Corpus.generate ~seed:corpus_seed ~n:corpus_n))

let actual_corpus_table () =
  let spec = { E.cs_seed = corpus_seed; cs_n = corpus_n } in
  let configs = E.all_standard_configs in
  E.render_corpus_tables spec
    ~configs:(List.map C.name configs)
    (E.corpus_rows ~engine:(ME.create ()) spec configs)
  |> Digest.string |> Digest.to_hex

(* (program, config, Emit.full_digest) *)
let suite =
  [
    ("bzip2", "gcc-Og", "462b1e157f349df149e7658c66520911");
    ("bzip2", "gcc-O1", "16e648dc713ff15244118013ee3e4490");
    ("bzip2", "gcc-O2", "4cf11a16b0dcbf68ec7250b83d1b3349");
    ("bzip2", "gcc-O3", "496f9770ca1504ad0afec13733b699a7");
    ("bzip2", "clang-O1", "e807989025d3d26a6db769dde23cd48a");
    ("bzip2", "clang-O2", "8ff2666e43e425645d7e67fab38382d8");
    ("bzip2", "clang-O3", "8ff2666e43e425645d7e67fab38382d8");
    ("libdwarf", "gcc-Og", "5bb8bdaf7578547e07e86640ee9c4728");
    ("libdwarf", "gcc-O1", "92cad49f83e8fcaa98acde2791657b51");
    ("libdwarf", "gcc-O2", "c6accfdab3c7a9dcb7a15b70d501e254");
    ("libdwarf", "gcc-O3", "6a66a7175334378880dcc459c314923e");
    ("libdwarf", "clang-O1", "4f4dc379746d2977bb730c1241b7293d");
    ("libdwarf", "clang-O2", "d6e5c23adb123046b583a11d6b39608b");
    ("libdwarf", "clang-O3", "496849a7d2071d4305b7396e320ab4cd");
    ("libexif", "gcc-Og", "2c33c056ebc054d89eeea410033227df");
    ("libexif", "gcc-O1", "c20dc0e700c2af71a0815ab3a563686b");
    ("libexif", "gcc-O2", "a8f7c46c90c444eff60c7cf55b561d2e");
    ("libexif", "gcc-O3", "86207af8a6748e4f3a1e0d37c350e6bd");
    ("libexif", "clang-O1", "e01a8b3a400825bd0d3a460be5d65fd0");
    ("libexif", "clang-O2", "2ba29b8a3beee4309d3f3f20aaa2db29");
    ("libexif", "clang-O3", "55df2e2291912ff70f4b84f372b28e25");
    ("liblouis", "gcc-Og", "4ba0f30a7858ae0a22eff711b562688c");
    ("liblouis", "gcc-O1", "0b3ffe4b5ae810c07b01649608fc8c9e");
    ("liblouis", "gcc-O2", "998c370e31bae57653a6e2a282a1d7d8");
    ("liblouis", "gcc-O3", "998c370e31bae57653a6e2a282a1d7d8");
    ("liblouis", "clang-O1", "2e839dee6a4d963162847f455a37a39d");
    ("liblouis", "clang-O2", "ba42d4064c7811a773330d354ce99a32");
    ("liblouis", "clang-O3", "cefbad5e4e3b41f022a0d0214f86b14e");
    ("libmpeg2", "gcc-Og", "f3506df403d0c3b56871f3f63a45affc");
    ("libmpeg2", "gcc-O1", "9b77736c24dffdd79f1d9e519c98cff2");
    ("libmpeg2", "gcc-O2", "f3e6e11ebed90de03c6903817fed0bd2");
    ("libmpeg2", "gcc-O3", "6ccb72a46bff0544aa76c9caf3f2e530");
    ("libmpeg2", "clang-O1", "b105eb789b4bf37fa8c652e9d1a1b4c2");
    ("libmpeg2", "clang-O2", "37f9b27e7aae582ca20f17349231f81c");
    ("libmpeg2", "clang-O3", "7e3b89c2bd23814ce3ef88978d087d51");
    ("libpcap", "gcc-Og", "1a91213ed74864629f1ffbcbf07d8063");
    ("libpcap", "gcc-O1", "24640483d00155d6f34d8cb24546fffd");
    ("libpcap", "gcc-O2", "c2e6efb6249ff1179f804157302ae0c9");
    ("libpcap", "gcc-O3", "74f2f1e2e63ade46a976a09cccfb874c");
    ("libpcap", "clang-O1", "7ff1ffbe9d2cb1e3bf8381585a2d547e");
    ("libpcap", "clang-O2", "73be1a00642857037c96a26db2a1f190");
    ("libpcap", "clang-O3", "5119bd323f3aecd8821c5ad4dbb2f0e3");
    ("libpng", "gcc-Og", "098b3f7b2ec297e33c11281530966e81");
    ("libpng", "gcc-O1", "ec238793dfc22f9dac2e3408936baf43");
    ("libpng", "gcc-O2", "ceac46343e462e3e4e111f08b0a5509e");
    ("libpng", "gcc-O3", "5e1c284e1c25f6b600c41156223684cf");
    ("libpng", "clang-O1", "58a6e78429d23bcb5005e1dd59170c2e");
    ("libpng", "clang-O2", "64e7832098f60193bbc16f5525b6604e");
    ("libpng", "clang-O3", "e5f868904508c8c7b0f26a931b19c2aa");
    ("libssh", "gcc-Og", "f3be6f023db81ac3e695f5f8f54a0e5c");
    ("libssh", "gcc-O1", "0676ce004a59dcb34a46bf9a1e0889cc");
    ("libssh", "gcc-O2", "07a0069b98d953c5a117b2890c8dbdf3");
    ("libssh", "gcc-O3", "3661b3d091baf94f0546f1abbc2adc9e");
    ("libssh", "clang-O1", "19fde80d7d906614399b6449a954f473");
    ("libssh", "clang-O2", "564343374c39ea8042a46b12fcc5a895");
    ("libssh", "clang-O3", "3ce482481eab0ccb46d682583af70f3b");
    ("libyaml", "gcc-Og", "c669a18a18e9a11c4ce690824bf12c9e");
    ("libyaml", "gcc-O1", "7556e6e36bbdd0ac8f46b759a87bd619");
    ("libyaml", "gcc-O2", "6e84ba9b068a97c753260a9f5fb2c3e5");
    ("libyaml", "gcc-O3", "5ef1cac72244484861abe432b6be0518");
    ("libyaml", "clang-O1", "0ad23bb5374725156b214fbc53e37368");
    ("libyaml", "clang-O2", "f9e00337162a13c3c73ff1020270fa41");
    ("libyaml", "clang-O3", "4559407f08b83ecd0dfe535024e7ea67");
    ("lighttpd", "gcc-Og", "01e3bbe6e34f1c5d0c63884de785a652");
    ("lighttpd", "gcc-O1", "e6f8c97d05a810edf27843fd2ed0750a");
    ("lighttpd", "gcc-O2", "178b5fa3033b5348218d9463ee45fb4d");
    ("lighttpd", "gcc-O3", "d6855d57249cdf4dc0f62b5a14173b79");
    ("lighttpd", "clang-O1", "825d47b7c93f5de61068dd0504e4cc82");
    ("lighttpd", "clang-O2", "1b424edb7e31485b413b32b9e59c10c2");
    ("lighttpd", "clang-O3", "1d8b1e9b0425f6512000b935ede20145");
    ("wasm3", "gcc-Og", "195078fa08d7f9fb2e0a15117a7aada7");
    ("wasm3", "gcc-O1", "a46ba4a4854a208ae79498297c8e022d");
    ("wasm3", "gcc-O2", "3af4341bb6016fc49536bb0dbf85ad11");
    ("wasm3", "gcc-O3", "b51d27d5cb27e3c90d53f3d139535e83");
    ("wasm3", "clang-O1", "7cbc2b5d5821748a5c786f993abc0f59");
    ("wasm3", "clang-O2", "305d45f5a5a2fe065c7cde8f708f861c");
    ("wasm3", "clang-O3", "a9f7d689c041c80c907642b765a18224");
    ("zlib", "gcc-Og", "4e3c3f55147bdce932ddd47d07f63fd2");
    ("zlib", "gcc-O1", "8660b24fa9380bbde9f87f6d90000fde");
    ("zlib", "gcc-O2", "618fe7d3a1b44643f4fde983615419ea");
    ("zlib", "gcc-O3", "d3d45538af5563b164ed341ad1c0334c");
    ("zlib", "clang-O1", "8b3c643fcd14203d41c51d5f5ddffce1");
    ("zlib", "clang-O2", "004dfe80aa97447874575131370fb1e0");
    ("zlib", "clang-O3", "fcbbb43d93321a384b5d2d58b2bbf576");
    ("zydis", "gcc-Og", "76baf4ce35cf1b74c25e56052027efee");
    ("zydis", "gcc-O1", "d350f4cbf44bd305a8a2b1ae45b1f27a");
    ("zydis", "gcc-O2", "51878f4079b20d51404a8494cbd2e454");
    ("zydis", "gcc-O3", "79151d5ade1322850e4d4b3b565cefa9");
    ("zydis", "clang-O1", "e79255afabe9e5c70baba9563a9b9f98");
    ("zydis", "clang-O2", "2cb87a7d79be24c42212fdb8c6863e3a");
    ("zydis", "clang-O3", "5723e45b29dadde53b286167f6c5422c");
  ]

let corpus =
  [
    ("synth-1", "gcc-Og", "dcb7e3a944039ec0248aedd672219362");
    ("synth-1", "gcc-O1", "f0748e5981a11add93805fb9b1a7def8");
    ("synth-1", "gcc-O2", "bddceccaa20a2c6d12093984ba119512");
    ("synth-1", "gcc-O3", "b5f767830632fc3df360b1ec2a1fc519");
    ("synth-1", "clang-O1", "41b431f1c3a2431344d2df5334fda114");
    ("synth-1", "clang-O2", "51c67c638f7b3209f311742d587fd3b4");
    ("synth-1", "clang-O3", "51c67c638f7b3209f311742d587fd3b4");
    ("synth-2", "gcc-Og", "6979fad4aa160890d67ce56a1956b6eb");
    ("synth-2", "gcc-O1", "9edb0ad573b33ff5da4ec53b51662b48");
    ("synth-2", "gcc-O2", "b356294b00744670e57a34bb194be816");
    ("synth-2", "gcc-O3", "5dd76291d568136ee0449d6a39d76e18");
    ("synth-2", "clang-O1", "ca80cf79b3424be6ed0c0c76fd0d2909");
    ("synth-2", "clang-O2", "47a1278095a788fea1582c1863d491a9");
    ("synth-2", "clang-O3", "91984faf96a6c9e4a2ac39d46d2ac92c");
    ("synth-3", "gcc-Og", "01463204b0ee976831f000b966157b9a");
    ("synth-3", "gcc-O1", "33d2da5c5dc35f6b3204e589c5f0c3d8");
    ("synth-3", "gcc-O2", "da6411431a95e0164318e460199d0d74");
    ("synth-3", "gcc-O3", "c436a58ea86d5287dce4205768f4b5c5");
    ("synth-3", "clang-O1", "cfc4a47dce310c400f6222befdeb53b0");
    ("synth-3", "clang-O2", "48df70fbd8244e749f675fce8c63f496");
    ("synth-3", "clang-O3", "e599f0c1a6fe6e6840f3a7c47bc2de6c");
    ("synth-4", "gcc-Og", "92e440aed663d24465d9585f7cb9f548");
    ("synth-4", "gcc-O1", "216e2cd38037d0e59702f5d52b981e36");
    ("synth-4", "gcc-O2", "2fcd8898669a726fcfa8ea80c42e98de");
    ("synth-4", "gcc-O3", "b6864e689e9564d1f0a68c1f7a167b77");
    ("synth-4", "clang-O1", "b0f74b82170cad6569fb9afad0eb01dc");
    ("synth-4", "clang-O2", "870dfd5b8fb815b34b65777bfaf58381");
    ("synth-4", "clang-O3", "14abffbea0e7aa9e3f45310ba28bd75d");
    ("synth-5", "gcc-Og", "e934dffd5b7752b7e54527261ceb1dda");
    ("synth-5", "gcc-O1", "466650f17529c0a19206327d1776ec09");
    ("synth-5", "gcc-O2", "b6ada287be64ee83c300467d9f962593");
    ("synth-5", "gcc-O3", "2d91fe456f194950456945f96245e5f2");
    ("synth-5", "clang-O1", "0f7a5224dc47f9004c2b6dcc7b8e43e5");
    ("synth-5", "clang-O2", "0f7a5224dc47f9004c2b6dcc7b8e43e5");
    ("synth-5", "clang-O3", "f2d12b8a67fe2678ba5082362a286e70");
    ("synth-6", "gcc-Og", "9f142102406430ba3da8721be7a6f50f");
    ("synth-6", "gcc-O1", "44902ccccafd8a40b05d43983db148df");
    ("synth-6", "gcc-O2", "75fe033d921ac45d732b558a3682ac9d");
    ("synth-6", "gcc-O3", "4bdd387b54dca0e35d39bc23e2982cce");
    ("synth-6", "clang-O1", "41189610586d14dab845b38471e13e36");
    ("synth-6", "clang-O2", "f6ce76a5b471702f097868c8986db623");
    ("synth-6", "clang-O3", "6c825dafdfbd0d74073a2c3eb0202f3a");
    ("synth-7", "gcc-Og", "2bb5efce759cf3e3d2d91b2f2cbed9aa");
    ("synth-7", "gcc-O1", "0d8a577ddc3de20369ca6809399deebf");
    ("synth-7", "gcc-O2", "bf11ca4f4b268570eb70e583f7815229");
    ("synth-7", "gcc-O3", "ec298499a76658f1ec176dabb37100b9");
    ("synth-7", "clang-O1", "d69802d7f8188c42a5930b0366c99ab6");
    ("synth-7", "clang-O2", "e59fd512c43959daa2e008b735b28570");
    ("synth-7", "clang-O3", "609cd206a2a5cad4bb15ea42e5a0c58f");
    ("synth-8", "gcc-Og", "24fe78d0741ae2bc4fd61301846eaeca");
    ("synth-8", "gcc-O1", "1a0adb55c422e2e348d592a6466cbc4c");
    ("synth-8", "gcc-O2", "6f2930dec917a17511dccbf13df2f1e5");
    ("synth-8", "gcc-O3", "11fe49ab1b4ea76e772ed5c1bfcb848d");
    ("synth-8", "clang-O1", "4176054bc358d5fabe025f79dc17c36d");
    ("synth-8", "clang-O2", "a27c5cb13f7367bace504a5f37496c87");
    ("synth-8", "clang-O3", "a27c5cb13f7367bace504a5f37496c87");
    ("synth-9", "gcc-Og", "d5a22e5ba5c91b433da91552593ed989");
    ("synth-9", "gcc-O1", "efda858499bd9b7d2e46e7c4066cd01a");
    ("synth-9", "gcc-O2", "2261e3f4522f392a1ee8643ffaf00ac7");
    ("synth-9", "gcc-O3", "03e2808c6e408d1120a6899c8ad6dbb2");
    ("synth-9", "clang-O1", "5b2284cebe97e1049d176aa3cc843abc");
    ("synth-9", "clang-O2", "eab31c387767ef3d6eb5906d090bf2e5");
    ("synth-9", "clang-O3", "eab31c387767ef3d6eb5906d090bf2e5");
    ("synth-10", "gcc-Og", "adeba437e37213bf46c1446e849aa41f");
    ("synth-10", "gcc-O1", "cb684fbab2cc48e7e8363df7b7ba56e1");
    ("synth-10", "gcc-O2", "b42f7ec88d2b527dd890d204b59eedcf");
    ("synth-10", "gcc-O3", "80f496d5514c88ffbbde92415ec8cf42");
    ("synth-10", "clang-O1", "decbc5f9a0141a34069879d26288c060");
    ("synth-10", "clang-O2", "4115dff7bfe919543410b9dfce6091a4");
    ("synth-10", "clang-O3", "24bdd283eacba079af5b412272c49304");
    ("synth-11", "gcc-Og", "3865c42fd0344dec95e2bfe6aa1de996");
    ("synth-11", "gcc-O1", "4b7987bcce722f5de4f60e362dfc3330");
    ("synth-11", "gcc-O2", "3c8b5d6a24591a202ad90da2d06cd0f0");
    ("synth-11", "gcc-O3", "f302be60a9e5ab0711557191b76311bf");
    ("synth-11", "clang-O1", "fd0b4cc95f59a3034f48557ebc575d35");
    ("synth-11", "clang-O2", "7c9c370d90199972e03377192c5b2052");
    ("synth-11", "clang-O3", "b3a2992a029e182a3f7c0ee9e7ea90bc");
    ("synth-12", "gcc-Og", "6ef914efb5a22b2a24ff046da1a52c7a");
    ("synth-12", "gcc-O1", "34548d0f76f2e6430bd2692552b8ef35");
    ("synth-12", "gcc-O2", "c8a54108211d5a331ba09e6fb09e1187");
    ("synth-12", "gcc-O3", "082c915c35e360b8aafa1538a3ce6f14");
    ("synth-12", "clang-O1", "c9ddda5f81caf0435c1e7c5d4742a0ee");
    ("synth-12", "clang-O2", "ac9d13845a0450d2feffb1fb911f065c");
    ("synth-12", "clang-O3", "ac9d13845a0450d2feffb1fb911f065c");
    ("synth-13", "gcc-Og", "0b0b0ca723abb4e0fbbfc73c9dda4bd6");
    ("synth-13", "gcc-O1", "7b94b1ccbbf2fd569e593cb4eec69ff6");
    ("synth-13", "gcc-O2", "2f2cabe50594ba3de6ef4587b5db91cc");
    ("synth-13", "gcc-O3", "ce00c0ce22afcd58460c38622f003977");
    ("synth-13", "clang-O1", "1349d135526730a37c0861113b2b88e9");
    ("synth-13", "clang-O2", "51bb32fc15de561e91fa334d6fd09e92");
    ("synth-13", "clang-O3", "1d51e7b819da54ab955c836de762d9b0");
    ("synth-14", "gcc-Og", "5e09a67267a382d6882fd15cf72c1edf");
    ("synth-14", "gcc-O1", "2e96d3215828024a54fa824afd5f69a0");
    ("synth-14", "gcc-O2", "3b6e3388c84283d4fd2a408a206dfefb");
    ("synth-14", "gcc-O3", "49793a589bd2e5cd8424df48ca57b133");
    ("synth-14", "clang-O1", "5c1cea828ee873f8e4f97c27e464cafc");
    ("synth-14", "clang-O2", "6f753cfceb6a90872111c4deeba3698c");
    ("synth-14", "clang-O3", "2795bfef4effba9abeade35f31a7de7e");
    ("synth-15", "gcc-Og", "f7a62977d02401b9e90be03f7e80f423");
    ("synth-15", "gcc-O1", "e29c9fa9f24ddad9da2bdeeabdef4e99");
    ("synth-15", "gcc-O2", "74cafd1224d2a7d85922fc8ec1dc1160");
    ("synth-15", "gcc-O3", "1d015763b3ebf71229fcb231b41376b4");
    ("synth-15", "clang-O1", "ea7289e4a8d6cdd8798ad15fe8e8023c");
    ("synth-15", "clang-O2", "bfbb91b3b231c8b0c5586a01e528463d");
    ("synth-15", "clang-O3", "0054ee7b2c0016c4fa926ffd83973bd9");
    ("synth-16", "gcc-Og", "737ed1e9a78705b885394b2c6627d835");
    ("synth-16", "gcc-O1", "5f364ea6aeb197bfcf5b9ad2b89b9d6c");
    ("synth-16", "gcc-O2", "9e9409350b11673e615630d9bd768d4b");
    ("synth-16", "gcc-O3", "f45da65e717f289a0f77cb27ff2cfdd0");
    ("synth-16", "clang-O1", "af96390df379e3ad4510ea3883ce766b");
    ("synth-16", "clang-O2", "2dc7997568d412871a186c4aa6d98ed0");
    ("synth-16", "clang-O3", "94e93e023fe723a89aaea6cfa903c9de");
    ("synth-17", "gcc-Og", "6c0ff54950cab7d228f33c0657fe116d");
    ("synth-17", "gcc-O1", "ddcef14342422a4dfadfc3356d1ffb87");
    ("synth-17", "gcc-O2", "fb448421f573467baa847293bde31750");
    ("synth-17", "gcc-O3", "addac176efe3adc06a5a852d9dadf40a");
    ("synth-17", "clang-O1", "a60cd51a7f364017bf2779378ad27f40");
    ("synth-17", "clang-O2", "2a9fee2e4a5a6516d8777b9ecf509ff6");
    ("synth-17", "clang-O3", "9ac60cfc3408da9e7c87e0269a52f2b9");
    ("fuzz-1", "gcc-Og", "fa31a3cd439f312428c7a2326624a542");
    ("fuzz-1", "gcc-O1", "7d237df7f7db39f895013e3dc50ff7d7");
    ("fuzz-1", "gcc-O2", "343294b84bf3b2b58ea6b728b1cecda1");
    ("fuzz-1", "gcc-O3", "392bfd39be41fdb2816bae6694149bd1");
    ("fuzz-1", "clang-O1", "8e73984a30afb17b3b71370f77b9a834");
    ("fuzz-1", "clang-O2", "fc6dae8cdfcf936a9c0832bd1b208829");
    ("fuzz-1", "clang-O3", "478b731c7218e5c197b17d954cbf5767");
    ("fuzz-2", "gcc-Og", "6f8db5f30155ae4b36884ff396cdd77f");
    ("fuzz-2", "gcc-O1", "cbb6144a8b186f018ed3eb1e6025f6b8");
    ("fuzz-2", "gcc-O2", "7f528f9c38031242892ba5dd9bec2ee7");
    ("fuzz-2", "gcc-O3", "4d68a862af439a9f69b0bbd66fa22a3d");
    ("fuzz-2", "clang-O1", "f0c1a2b5a9c7a9ad1a1da797f0480a37");
    ("fuzz-2", "clang-O2", "794eb95dbff5f780194146fb927f5ba1");
    ("fuzz-2", "clang-O3", "842bcc0a431a63c71cef8e7d19f7c760");
    ("fuzz-3", "gcc-Og", "c5db81f810bdc5e5d5b8af824e7496de");
    ("fuzz-3", "gcc-O1", "d82159533aff62960974a3eec7a09cf7");
    ("fuzz-3", "gcc-O2", "0b2a79483db69254c0af2ac6943f33c1");
    ("fuzz-3", "gcc-O3", "467503a7776ae2d13ca91601e89fb667");
    ("fuzz-3", "clang-O1", "da6959268754f32877e333dce0a8d11b");
    ("fuzz-3", "clang-O2", "a612e825cbfee8a87496221a054c8232");
    ("fuzz-3", "clang-O3", "8c6845c799b4523005c491542966e4cc");
    ("fuzz-4", "gcc-Og", "a92b51414352adf556734275cfd767a9");
    ("fuzz-4", "gcc-O1", "70affbd097ed1db3d2fdb9089ae4d3a3");
    ("fuzz-4", "gcc-O2", "e09ee680e60bd2cd5d87b164e5783c8e");
    ("fuzz-4", "gcc-O3", "1513187432d96d0017336ddc152feec9");
    ("fuzz-4", "clang-O1", "d0b01b81948595c776781a03b4a5c25e");
    ("fuzz-4", "clang-O2", "9614659fe54ffe9cc1b59d329496a971");
    ("fuzz-4", "clang-O3", "63b6c24589683ce708381f82cf8027a7");
    ("fuzz-5", "gcc-Og", "42ff2a604c2a29be8a4d3165aa9ed481");
    ("fuzz-5", "gcc-O1", "e2c4070ea556c7284fdcdb3afaa2d27e");
    ("fuzz-5", "gcc-O2", "a6dcbd04815bdfb1f426ea58df9fb8a5");
    ("fuzz-5", "gcc-O3", "2e31b3ab95caa5f8a925e4727d210710");
    ("fuzz-5", "clang-O1", "9ea6d01b060854a70a6d54976d115130");
    ("fuzz-5", "clang-O2", "c8f7e540f6efe649c91529cb68275424");
    ("fuzz-5", "clang-O3", "339f2bf5294cd2b572f65de49065eacd");
    ("fuzz-6", "gcc-Og", "42512673a79f1a5d1260cc06c8d1c83f");
    ("fuzz-6", "gcc-O1", "b5ae5c3ac87953b3a54cc073aefc6af0");
    ("fuzz-6", "gcc-O2", "b6ae175a06184730ccebeda4ef8af156");
    ("fuzz-6", "gcc-O3", "94c3425d4a2fe7083cdde4fc8fe79412");
    ("fuzz-6", "clang-O1", "9734b3c0d372396027672fe93c7aa844");
    ("fuzz-6", "clang-O2", "c0d074db65cee16b60ee91458f98cbc9");
    ("fuzz-6", "clang-O3", "c0d074db65cee16b60ee91458f98cbc9");
    ("selfcomp-1", "gcc-Og", "f17418120fc83a5003e2252bcb2272c5");
    ("selfcomp-1", "gcc-O1", "67903b86b334253e3630c235da0c6f4c");
    ("selfcomp-1", "gcc-O2", "2f3962e15931834c290304100746013e");
    ("selfcomp-1", "gcc-O3", "d9930c3ccf61a79b0c8aacf748e891f0");
    ("selfcomp-1", "clang-O1", "d58e4a5b43bf23f3d23abed4e0b946c4");
    ("selfcomp-1", "clang-O2", "8db39ca8833521fbd200dc474216ec20");
    ("selfcomp-1", "clang-O3", "2b4022de43cbee50f8e741a3def59844");
  ]

(* The same digests from sweeps: every program's gcc-O0 and standard
   configurations planned together, read back from tier 1. gcc-O0 has
   no pinned digest; it must equal its straight compile. *)
let swept (programs : Suite_types.sprogram list) =
  let eng = ME.create () and o0 = C.make C.Gcc C.O0 in
  List.concat_map
    (fun (p : Suite_types.sprogram) ->
      ME.compile_sweep eng p (o0 :: E.all_standard_configs);
      let digest config = (ME.compile_packed eng p config).ME.pk_full_digest in
      Alcotest.(check string)
        (p.Suite_types.p_name ^ " at gcc-O0")
        (T.compile (Suite_types.ast p) ~config:o0 ~roots:(Suite_types.roots p))
          .Emit.full_digest
        (digest o0);
      List.map
        (fun config -> (p.Suite_types.p_name, C.name config, digest config))
        E.all_standard_configs)
    programs

let corpus_table = "8b3dbd432d6a15c9bd19f6aff8b6ee0c"

let check_pinned pinned actual =
  Alcotest.(check int) "binaries" (List.length pinned) (List.length actual);
  List.iter2
    (fun (p, c, d) (p', c', d') ->
      Alcotest.(check (pair string string)) "program, config" (p, c) (p', c');
      Alcotest.(check string) (Printf.sprintf "%s at %s" p c) d d')
    pinned actual

let tests =
  [
    Alcotest.test_case "suite binaries at the standard configs" `Quick
      (fun () -> check_pinned suite (actual_suite ()));
    Alcotest.test_case "corpus binaries at the standard configs" `Quick
      (fun () -> check_pinned corpus (actual_corpus ()));
    Alcotest.test_case "sweeps reproduce the pinned binaries" `Quick
      (fun () ->
        check_pinned suite (swept Programs.all);
        check_pinned corpus
          (swept
             (List.map
                (fun (e : Corpus.entry) -> e.Corpus.e_program)
                (Corpus.generate ~seed:corpus_seed ~n:corpus_n))));
    Alcotest.test_case "rendered corpus tables" `Quick (fun () ->
        Alcotest.(check string) "digest" corpus_table (actual_corpus_table ()));
  ]
