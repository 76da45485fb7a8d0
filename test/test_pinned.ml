(* Certificates and code digests pinned from the spliced-copy linker:
   every W64 kernel row at both signednesses, the variable divides
   (general and small-divisor dispatch), and the constant multiplies and
   divides by twenty constants, each selected under certified-only
   selection. A line is "request strategy kind certificate-digest
   code-digest", or the selection error. Linking shares the millicode
   now instead of copying it; what a plan certifies and encodes to must
   not move. Do not regenerate these from current output to make a
   failure go away. *)

module Strategy = Hppa_plan.Strategy
module Selector = Hppa_plan.Selector
module Certificate = Hppa_verify.Certificate

let line ?ctx req =
  let id = Strategy.request_id req in
  match Selector.choose ?ctx ~require_certified:true req with
  | Error e -> Printf.sprintf "%s error %s" id e
  | Ok ch ->
      let cert =
        match ch.Selector.certificate with
        | None -> "none"
        | Some c ->
            Certificate.kind_label c.Certificate.kind ^ " " ^ c.Certificate.digest
      in
      let code =
        match Strategy.digest ch.Selector.emission with
        | Ok d -> d
        | Error e -> "error " ^ e
      in
      Printf.sprintf "%s %s %s %s" id ch.Selector.chosen.Strategy.name cert code

let constants =
  [
    3l; 5l; 6l; 7l; 9l; 10l; 11l; 12l; 13l; 15l; 17l; 25l; 60l; 100l; 625l;
    641l; 1000l; 65537l; 1000003l; 2147483647l;
  ]

let requests () =
  let dispatch = Strategy.compiler ~small_divisor_dispatch:true () in
  List.concat_map
    (fun k ->
      [ (None, Strategy.w64_run k Strategy.Unsigned); (None, Strategy.w64_run k Strategy.Signed) ])
    Hppa_w64.kernels
  @ [
      (None, Strategy.div_var Strategy.Signed);
      (None, Strategy.div_var Strategy.Unsigned);
      (Some dispatch, Strategy.div_var Strategy.Signed);
      (Some dispatch, Strategy.div_var Strategy.Unsigned);
    ]
  @ List.concat_map
      (fun c ->
        [
          (None, Strategy.mul_const c);
          (None, Strategy.div_const Strategy.Signed c);
          (None, Strategy.div_const Strategy.Unsigned c);
        ])
      constants

let expected =
  [
    "mul.var.u.w64 w64_mul_millicode body_equiv eb773133b713380b9488695b3cfd35ef 59a0a54d7dc79f2e41bd39be7e98ed02";
    "mul.var.s.w64 w64_mul_millicode body_equiv c93b772ecc707585da224524e4fd025d aa7f4d3eb674a86a435a1c22392de6a3";
    "div.var.u.w64 w64_div_millicode body_equiv 969829d713584a164244a3837d896ebb be9d2d72758f0edfcd12eb0fa96f98ab";
    "div.var.s.w64 w64_div_millicode body_equiv 678fca3da910a41af30b9b46417cfec1 3ad13812342f47b4d1627f10e1218b48";
    "rem.var.u.w64 w64_div_millicode body_equiv e9c97c46874c8ffff69c124eb897b116 ccbfc6b4c92b4b4c4d83937c54985e32";
    "rem.var.s.w64 w64_div_millicode body_equiv d471187893157f678fa867fe1a2178a8 722a381a21c712cac141f876ebbb4065";
    "divl.var.u.w64 w64_divl_millicode body_equiv fad9cc36485f65e710dd52c81145c3b2 032bc9a4b6d1f61b80bcc3c0e94d32bd";
    "divl.var.s.w64 error no applicable strategy for 64-bit 128/64 divide by a run-time operand (signed)";
    "div.var.s div_millicode divide_step 96f20bf92e8fd55919519a7243a55918 1b01813688aa56c81925a4d094e9e517";
    "div.var.u div_millicode divide_step ab534c569a13d01ba67a95077b2051c8 8d7fc7da3757d5094891a1315bae5411";
    "div.var.s div_small dispatch 83f1ef8e57739fc4a899266bcac148d2 89da2fee2746234b33e9fa3ecbf9ce71";
    "div.var.u div_small dispatch aec0e405a364bc0323d6d3ee483372ad 89a3bfb6d18be3997c9e8aab5b63eee5";
    "mul.c3.s mul_const_chain linear_mul 0ad337c51d258a41cc53f7cbe9583400 f62b8a9280a023b1ac1c731176b71f24";
    "div.c3.s div_const reciprocal_div 961efb1adbb3e4ec33b616001cae2571 96fd6e334539fc98ff661a832f6016a5";
    "div.c3.u div_const reciprocal_div 6a692251b46cebb5bdd3925a0cd7f291 c20177527ea9d448faf776babd203531";
    "mul.c5.s mul_const_chain linear_mul 72173cfa511b2341ac985b365df1af00 ca5238b4021ddc821a61ec7a3312e1e9";
    "div.c5.s div_const reciprocal_div 60bd039d832cb7ec50d645a7a18d2c53 25ee6ba3a1dc27715aec1a17945e37d5";
    "div.c5.u div_const reciprocal_div bea6ce43a86faeba8ee8d75ae69fb6d3 862ad029c5f199f0b98d6daac0ee70da";
    "mul.c6.s mul_const_chain linear_mul 9b0dc14b3e3e1429d54e20510d52f6a9 2da7e0e94a1266097ef14d34a1c91938";
    "div.c6.s div_const reciprocal_div 58e6b33da304a1db32dd194c89c2b7a5 877608f22c07d64015351243adead7bd";
    "div.c6.u div_const reciprocal_div 1545701fa1c04a1ffb08e70998d5b861 b78d8f9b754f419a4e52069df1b5cc7e";
    "mul.c7.s mul_const_chain linear_mul a0957c90dc0b4df39c949769493a7247 659595baa3d4eed1cdbe02d2b9ca7205";
    "div.c7.s div_const reciprocal_div da3bf099d2757e5bcfb0c84bb8db6f04 25623a2562c4dc402aafc33055e30281";
    "div.c7.u div_const reciprocal_div d5d121872501c303d2709706322d609c cdbf6c8f7c87928e0a4efd804fac4c90";
    "mul.c9.s mul_const_chain linear_mul d788ab5c6745fcc7c9b033d758936b7b 897341abd5166695c6dfc8b83670527a";
    "div.c9.s div_const reciprocal_div 5f40f1cf3176a5c99bbdaac16c22ef9f 7c157a7a978780763ed603eb3c76e91d";
    "div.c9.u div_const reciprocal_div ce1152cd36f1aecada73dcf7c941af7d 97af0b0c66d383292e3b4b80560db323";
    "mul.c10.s mul_const_chain linear_mul 35f5cbf0d13552f232ac1431d015fdfc f8404905b259f4c5af73f819ac7faa8f";
    "div.c10.s div_const reciprocal_div 9c935f520251b9dc2e3d9f267391849e 9a5d5f26463ee826489d14e9f4a7b652";
    "div.c10.u div_const reciprocal_div 3af7b4823072be1c69fb0ee5ccbb7158 db501cdbcc666def580779b95e7b5df1";
    "mul.c11.s mul_const_chain linear_mul d421d6cfe3f89be4b8da37f958bfd27c faa55230d6e45c9dcdecb494234bbee0";
    "div.c11.s div_const reciprocal_div ed25f00c154ede984546c737d502d5d7 93221ae168000fdf108800c1a91cfa5f";
    "div.c11.u div_millicode divide_step a7737d29a93757e19829c41a108c3183 6149be3dfb72f7afcb25c5ec5ca5f8bc";
    "mul.c12.s mul_const_chain linear_mul 9b4e87183a0fcf7b49fdb82915738b14 330aadb054094f4170f4aa2429aeee65";
    "div.c12.s div_const reciprocal_div c2cfb381b42d870034d7d60d9e921029 ac974f7619e668b5ec9f7ddde66b453d";
    "div.c12.u div_const reciprocal_div 121a7ba7352d8370fff9f92f91338a10 cb4b88436e18a52e5d5cbf5b6e4d6d59";
    "mul.c13.s mul_const_chain linear_mul 665ba62d5833bf8fb00c4368c1e76e08 e86823255c691e1d206d218ab353ff8b";
    "div.c13.s div_const reciprocal_div a66d2a48f35887d761441752a43f900e 624a2bc43abd7aeb1f1b0cc594f42454";
    "div.c13.u div_const reciprocal_div 7af42f1ffd701c7fccd33ee48665576b 4f229970c85371b49dce7245c27d0ec7";
    "mul.c15.s mul_const_chain linear_mul c0263db0f961a19fe5297471cb62158d 855965273b4924fa0b7c4c5014247ec8";
    "div.c15.s div_const reciprocal_div f2ee30bc7fa3a892d3081e07d98c3cb0 a82160d8f9ac3c359739a3af3edcdb32";
    "div.c15.u div_const reciprocal_div 6740c1edcbfbf338482400a7b8fafed4 0ae6a10e2c5ff7b2410cb1b53bab9e30";
    "mul.c17.s mul_const_chain linear_mul 7566e03b56aecd74b9eae02fc480594f c073d67c28241a6fa7ac2054ae1eda20";
    "div.c17.s div_const reciprocal_div 78fbeea12c54b1b4242c480de40464ac d9ea3e7fd551c93740988e59be70d446";
    "div.c17.u div_const reciprocal_div 6b4b92a8b2bd4ebe2a7cd03de3b3a8e9 a33ff4b5ed698a77249ebcf989463438";
    "mul.c25.s mul_const_chain linear_mul 84ac977ea65168b73779ddd5190a021d 68583e27ceda0cb4616fb98a0a7a7358";
    "div.c25.s div_const reciprocal_div 35a76d337a16e87ff9b9433b63fefd02 167e9bb57b2f07ef851196b675edfa33";
    "div.c25.u div_const reciprocal_div cda57ca357784b965eb8d2e8ad117a3f b596d124b289dbb82f1f9bc320965338";
    "mul.c60.s mul_const_chain linear_mul 108c4c2d49e9b5bc6afe6350ae5fa637 42d8cb6c918097ef85c2515e866fd435";
    "div.c60.s div_const reciprocal_div 65b7a73313336a4d99a139a816d0a96c beed722cbadd130a2ab71b626324e32b";
    "div.c60.u div_const reciprocal_div 9a8de8e2f4703ade9bd0b858600c8522 a972da7e6a644dcb902a060c56a9e2fe";
    "mul.c100.s mul_const_chain linear_mul c0b9b9db1bee7a575a08bb1fc296c682 1ade778bbebe67002412c3b5bea3202d";
    "div.c100.s div_const reciprocal_div c29ef9ea78c7ad336c620583e3761ab0 5204543c1ea63ea59e290c3801272cf1";
    "div.c100.u div_const reciprocal_div d8375af23eee63d6f646139deb9aa413 7fe2159223424cb12b670caced7d1c1a";
    "mul.c625.s mul_const_chain linear_mul 7623b488fad553b5d725cb7a6a672591 86774562bf054728a2c457fa10208144";
    "div.c625.s div_const reciprocal_div cb72ff5f593fed62f15ceda793fe0429 bce2771505216118226319bbb735549b";
    "div.c625.u div_millicode divide_step 0b6760a43c8535b38e5ec74bbf276d90 d796a454ca6516cf3127df1ec598858d";
    "mul.c641.s mul_const_chain linear_mul 0fb0b6a3a7c25aec40d5e88b4998b3f0 beb6ee174fcca399b5b703b34013db4f";
    "div.c641.s div_const reciprocal_div 73ed2170bb215bbbde00e793ba8c9987 b2644b8763145474a0cba97178bc7a24";
    "div.c641.u div_const reciprocal_div fb32f647b14abcd2c97d0a6854fb5e42 6f95c273e776ca9e74264e128bc0c4e8";
    "mul.c1000.s mul_const_chain linear_mul 651b76d3c86fdb54d122d8aad14939b0 d9dd647bb85551aa1d53fbb66a007bb6";
    "div.c1000.s div_const reciprocal_div 40d8c48e1577725ec70f1d593a23cdc4 759967ec4e4e2bedec9ddd9fedbfe7fd";
    "div.c1000.u div_const reciprocal_div 668033d1da3c432421c5608b1301cce8 0be4f901cf876100840d0a2fe5ec4c49";
    "mul.c65537.s mul_const_chain linear_mul d46562711a92e131c541dd8ecad93ab3 0f124c0bb56cfb1a12fa8a45adf49779";
    "div.c65537.s div_const reciprocal_div 90c6f778a053d56080687dd2496cc162 649a43b7d4b0a39ea3f707c200e4b67e";
    "div.c65537.u div_const reciprocal_div 90c3c6d80e5e6e9b8352be7c4bf8b207 2a5358aadf03a7a3a6ceeb69e77b630c";
    "mul.c1000003.s mul_const_chain linear_mul 81194a4f3e99a642514dd8dd5ff61d37 999c8e17e5bfbe661c5f2cca35587821";
    "div.c1000003.s div_const reciprocal_div 2764e3c711a52ff06f90cd280beb11e3 542adbaa2bd82421ed15a5239d57ea74";
    "div.c1000003.u div_const reciprocal_div 39ccbc5985c24e0a41bed0b859ccc271 31816ec8938917c38740a86bac398fe8";
    "mul.c2147483647.s mul_const_chain linear_mul d57a408c84ad4c51b9f59ee76f1ae57f 0b991e5335b2111fa506363e83528b1b";
    "div.c2147483647.s div_const reciprocal_div ee8b123b2dfcb364808f6f71371ffc94 3622753f999eabb359f57526e24f2fe6";
    "div.c2147483647.u div_const reciprocal_div a40937d907b7d7dd3fa7b0e609048b1b bfefd43c3898e07c37c87c8b4652b272";
  ]

let test_pinned () =
  let actual = List.map (fun (ctx, req) -> line ?ctx req) (requests ()) in
  Alcotest.(check int) "pinned lines" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "pinned" e a) expected actual

let suite =
  [
    ( "pinned",
      [ Alcotest.test_case "certificates and code digests" `Quick test_pinned ] );
  ]
